//! The tracer: the batch pipeline re-driven layer by layer through
//! each layer's public function, with a span around every call.
//!
//! Spans (name, start, end, parent, kernel or member-set id) are kept in
//! memory and written out when the run ends. The flow's inner stages
//! (synth / translate / verify / execute) arrive through a benchmark-side
//! [`FlowObserver`], as children of the `core.flow` span that called
//! `FitsFlow::run_profiled`. The tracer's results must equal the
//! untraced entry points' results for the same inputs before any
//! per-layer number is reported.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fits_bench::{
    default_candidates, paper_matrix, price_shared_member, synthesize_candidate, Artifacts,
    ConfigRun,
};
use fits_core::{profile_with, FitsFlow, FitsSet, FlowObserver, FlowStage, MultiMember, Profile};
use fits_isa::spec::Ar32Tables;
use fits_kernels::kernels::{Kernel, Scale};
use fits_power::{cache_power, chip_power_with, DecodeKind};
use fits_scenario::{ScenarioMatrix, ScenarioSpec};
use fits_sim::{Ar32Set, CompiledProgram, Machine};

use crate::batch::{Batch, KernelFacts, ParetoFacts, PassOutcome, Setup, EPSILON};
use crate::layers;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// Layer name (see [`layers::LAYERS`]) or a root name (`bench.*`).
    pub name: &'static str,
    /// Kernel name or member-set id the span works for.
    pub owner: String,
    /// Traced pass index.
    pub pass: usize,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// In-memory span store shared by the tracer's worker threads.
pub struct Recorder {
    origin: Instant,
    next: AtomicU64,
    pass: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// The `core.flow` span (id, owner) the calling thread is inside, so
    /// flow-stage callbacks know their parent.
    static FLOW_PARENT: RefCell<Option<(u64, String)>> = const { RefCell::new(None) };
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            pass: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        owner: &str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            owner: owner.to_string(),
            pass: self.pass.load(Ordering::Relaxed),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span store lock poisoned")
            .push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        owner: &str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, owner, start, Instant::now());
        out
    }

    /// Marks the start of traced pass `pass`.
    pub fn begin_pass(&self, pass: usize) {
        self.pass.store(pass, Ordering::Relaxed);
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock poisoned").clone()
    }
}

/// Reports flow stages as spans under the calling thread's `core.flow`.
struct StageObserver(Arc<Recorder>);

impl FlowObserver for StageObserver {
    fn stage(&self, stage: FlowStage, wall: Duration) {
        let end = Instant::now();
        let start = end.checked_sub(wall).unwrap_or(end);
        FLOW_PARENT.with(|parent| {
            if let Some((id, owner)) = parent.borrow().as_ref() {
                let sid = self.0.next.fetch_add(1, Ordering::Relaxed);
                self.0
                    .record(sid, Some(*id), layers::for_stage(stage), owner, start, end);
            }
        });
    }
}

/// Counts a traced pass adds up (work done, not time).
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Native instructions profiled.
    pub profiled_instr: u64,
    /// Instructions recorded by `Machine::run_recorded`.
    pub recorded_instr: u64,
    /// Instructions × machines priced by `RecordedTrace::price_all`.
    pub priced_lane_instr: u64,
    /// Shared-synthesis iterations (`pareto-grid`).
    pub multi_iterations: u64,
    /// Pareto candidates attempted and accepted.
    pub candidates: u64,
    /// Pareto candidates accepted.
    pub accepted: u64,
}

impl Counts {
    fn add(&mut self, other: &Counts) {
        self.profiled_instr += other.profiled_instr;
        self.recorded_instr += other.recorded_instr;
        self.priced_lane_instr += other.priced_lane_instr;
        self.multi_iterations += other.multi_iterations;
        self.candidates += other.candidates;
        self.accepted += other.accepted;
    }
}

/// The tracer for one batch workload.
pub struct Tracer {
    rec: Arc<Recorder>,
    flow: FitsFlow,
}

/// One kernel through every layer: facts for the checks, plus the
/// program and profile a shared synthesis needs.
struct KernelRun {
    facts: KernelFacts,
    runs: Vec<ConfigRun>,
    program: fits_isa::Program,
    profile: Profile,
    counts: Counts,
}

impl Tracer {
    /// A tracer recording into `rec`.
    #[must_use]
    pub fn new(rec: Arc<Recorder>) -> Tracer {
        let flow =
            fits_verify::verified_flow().with_observer(Arc::new(StageObserver(Arc::clone(&rec))));
        Tracer { rec, flow }
    }

    /// Traced pass number `pass` over `setup`'s inputs.
    pub fn pass(&self, setup: &Setup, pass: usize, counts: &mut Counts) -> PassOutcome {
        let mut out = PassOutcome {
            attempted: setup.ops(),
            ..PassOutcome::default()
        };
        let start = Instant::now();
        match setup.batch {
            Batch::SuiteN64 | Batch::PaperN4096 => {
                let matrix = paper_matrix();
                let runs = self.parallel(&setup.kernels(pass), |k| {
                    self.kernel(k, setup.scale, &matrix, true, None)
                });
                out.wall_s = start.elapsed().as_secs_f64();
                for run in runs {
                    match run {
                        Ok(run) => {
                            counts.add(&run.counts);
                            out.kernels.push(run.facts);
                        }
                        Err(e) => out.problems.push(e),
                    }
                }
            }
            Batch::ParetoGrid => {
                for group in &setup.groups(pass) {
                    match self.group(group, setup.scale, counts) {
                        Ok((facts, kernels)) => {
                            out.pareto.push(facts);
                            out.kernels.extend(kernels);
                        }
                        Err(e) => out.problems.push(e),
                    }
                }
                out.wall_s = start.elapsed().as_secs_f64();
            }
        }
        out
    }

    /// Runs `f` over `kernels` on one worker per CPU, results in input
    /// order (the same scheduling as the library's suite runner).
    fn parallel<T: Send>(&self, kernels: &[Kernel], f: impl Fn(Kernel) -> T + Sync) -> Vec<T> {
        let workers = std::thread::available_parallelism().map_or(2, std::num::NonZero::get);
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..kernels.len()).map(|_| None).collect());
        std::thread::scope(|s| {
            for _ in 0..workers.min(kernels.len()) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&kernel) = kernels.get(i) else { break };
                    let value = f(kernel);
                    slots.lock().expect("result slots lock poisoned")[i] = Some(value);
                });
            }
        });
        slots
            .into_inner()
            .expect("result slots lock poisoned")
            .into_iter()
            .map(|v| v.expect("every kernel ran"))
            .collect()
    }

    /// One kernel through compile → profile → flow → (thumb) → block
    /// compile → record → price → power, for every machine of `matrix`.
    fn kernel(
        &self,
        kernel: Kernel,
        scale: Scale,
        matrix: &ScenarioMatrix,
        with_thumb: bool,
        parent: Option<u64>,
    ) -> Result<KernelRun, String> {
        let rec = &*self.rec;
        let owner = kernel.name();
        rec.span("bench.kernel", parent, owner, |kid| {
            let k = Some(kid);
            let program = rec
                .span("kernels.compile", k, owner, |_| kernel.compile(scale))
                .map_err(|e| format!("{owner}: compile: {e}"))?;
            let profile = rec
                .span("core.profile", k, owner, |_| {
                    profile_with(&program, Ar32Tables::builtin())
                })
                .map_err(|e| format!("{owner}: profile: {e}"))?;
            let flow = rec
                .span("core.flow", k, owner, |fid| {
                    FLOW_PARENT.with(|p| *p.borrow_mut() = Some((fid, owner.to_string())));
                    let flow = self.flow.run_profiled(&program, profile.clone());
                    FLOW_PARENT.with(|p| *p.borrow_mut() = None);
                    flow
                })
                .map_err(|e| format!("{owner}: flow: {e}"))?;
            if with_thumb {
                rec.span("isa.thumb", k, owner, |_| {
                    Artifacts::new().thumb(kernel, scale)
                })
                .map_err(|e| format!("{owner}: thumb: {e}"))?;
            }
            let (machines, machine_of) = matrix.machines();
            let mut counts = Counts {
                profiled_instr: profile.dyn_total,
                ..Counts::default()
            };
            let decode = DecodeKind::Programmable {
                config_bits: flow.fits.config.config_bits(),
            };
            let arm = self.replay(
                || Ok(Ar32Set::load(&program)),
                &machines,
                k,
                owner,
                &mut counts,
            )?;
            let fits = self.replay(
                || FitsSet::load(&flow.fits).map_err(|e| format!("{owner}: decode: {e}")),
                &machines,
                k,
                owner,
                &mut counts,
            )?;
            // Config::ALL order for the paper matrix (ARM16, ARM8, FITS16,
            // FITS8); the single SA-1100 point otherwise (FITS only, as the
            // Pareto solo baseline keeps).
            let ordered: Vec<ConfigRun> = rec.span("power.price", k, owner, |_| {
                let runs: Vec<(ConfigRun, ConfigRun)> = matrix
                    .scenarios
                    .iter()
                    .zip(&machine_of)
                    .map(|(spec, &m)| {
                        (
                            priced(spec, arm[m].clone(), DecodeKind::Fixed32),
                            priced(spec, fits[m].clone(), decode),
                        )
                    })
                    .collect();
                if let [(arm16, fits16), (arm8, fits8)] = &runs[..] {
                    vec![arm16.clone(), arm8.clone(), fits16.clone(), fits8.clone()]
                } else {
                    runs.into_iter().map(|(_, fits)| fits).collect()
                }
            });
            Ok(KernelRun {
                facts: KernelFacts {
                    kernel,
                    native: profile.run,
                    fits: flow.fits_run,
                    fits_code_bytes: flow.fits.code_bytes(),
                    sims: ordered.iter().map(|r| r.sim.clone()).collect(),
                },
                runs: ordered,
                program,
                profile,
                counts,
            })
        })
    }

    /// Loads and block-compiles one binary, then records it and prices
    /// it on every machine.
    fn replay<S: fits_sim::InstrSet>(
        &self,
        load: impl FnOnce() -> Result<S, String>,
        machines: &[fits_sim::Sa1100Config],
        parent: Option<u64>,
        owner: &str,
        counts: &mut Counts,
    ) -> Result<Vec<fits_sim::SimResult>, String> {
        let rec = &*self.rec;
        let (set, compiled) = rec.span("sim.block_compile", parent, owner, |_| {
            let set = load()?;
            let compiled = CompiledProgram::compile(&set)
                .map_err(|e| format!("{owner}: block compile: {e}"))?;
            Ok::<_, String>((set, compiled))
        })?;
        let trace = rec
            .span("sim.record", parent, owner, |_| {
                Machine::new(set).run_recorded(&compiled)
            })
            .map_err(|e| format!("{owner}: record: {e}"))?;
        counts.recorded_instr += trace.output.steps;
        counts.priced_lane_instr += trace.output.steps * machines.len() as u64;
        rec.span("sim.price", parent, owner, |_| {
            trace.price_all(&compiled, machines)
        })
        .map_err(|e| format!("{owner}: price: {e}"))
    }

    /// One member set: solo baselines, merge, then per candidate the
    /// shared synthesis, static verification and member pricing.
    fn group(
        &self,
        group: &[Kernel],
        scale: Scale,
        counts: &mut Counts,
    ) -> Result<(ParetoFacts, Vec<KernelFacts>), String> {
        let rec = &*self.rec;
        let owner: String = group.iter().map(|k| k.name()).collect::<Vec<_>>().join("+");
        let scenario = ScenarioSpec::sa1100();
        let matrix = ScenarioMatrix {
            scenarios: vec![scenario.clone()],
        };
        rec.span("bench.group", None, &owner, |gid| {
            let g = Some(gid);
            let solo: Vec<KernelRun> = self
                .parallel(group, |k| self.kernel(k, scale, &matrix, false, g))
                .into_iter()
                .collect::<Result<_, _>>()?;
            for run in &solo {
                counts.add(&run.counts);
            }
            let weighted: Vec<(&Profile, f64)> = solo.iter().map(|r| (&r.profile, 1.0)).collect();
            rec.span("core.merge", g, &owner, |_| {
                Profile::merge_weighted(&weighted)
            })
            .map_err(|e| format!("{owner}: merge: {e}"))?;
            let members: Vec<MultiMember<'_>> = solo
                .iter()
                .map(|r| MultiMember {
                    name: r.facts.kernel.name(),
                    program: &r.program,
                    profile: &r.profile,
                })
                .collect();

            let mut points = Vec::new();
            let mut rejected = 0;
            for spec in default_candidates() {
                counts.candidates += 1;
                let Ok(outcome) = rec.span("core.multi", g, &owner, |_| {
                    synthesize_candidate(&members, spec, EPSILON)
                }) else {
                    rejected += 1;
                    continue;
                };
                counts.accepted += 1;
                counts.multi_iterations += outcome.iterations as u64;
                for (member, run) in outcome.members.iter().zip(&solo) {
                    let report = rec.span("verify.analyze", g, &owner, |_| {
                        fits_verify::analyze(&run.program, &outcome.synthesis, &member.translation)
                    });
                    if !report.is_clean() {
                        return Err(format!(
                            "{}: shared translation fails verification",
                            member.name
                        ));
                    }
                }
                let priced: Vec<Result<ConfigRun, String>> = self.parallel(group, |k| {
                    let member = outcome
                        .members
                        .iter()
                        .find(|m| m.name == k.name())
                        .ok_or_else(|| format!("{}: missing from the shared outcome", k.name()))?;
                    rec.span("bench.pareto_price", g, &owner, |_| {
                        price_shared_member(&member.translation.fits, &scenario)
                    })
                    .map_err(|e| format!("{}: price: {e}", k.name()))
                });
                let priced: Vec<ConfigRun> = priced.into_iter().collect::<Result<_, _>>()?;
                points.push((
                    spec.id(),
                    outcome
                        .members
                        .iter()
                        .map(|m| m.translation.fits.code_bytes())
                        .sum::<usize>(),
                    priced.iter().map(|r| r.icache.total_j()).sum::<f64>(),
                    outcome.synthesis.config.ops.len(),
                    outcome.iterations,
                ));
            }
            let axes: Vec<[f64; 3]> = points
                .iter()
                .map(|p| [p.1 as f64, p.2, p.3 as f64])
                .collect();
            let frontier = fits_core::pareto_frontier(&axes);
            let solo_j: f64 = solo.iter().map(|r| r.runs[0].icache.total_j()).sum();
            let best_vs_solo_j = frontier
                .iter()
                .map(|&i| points[i].2)
                .min_by(f64::total_cmp)
                .map(|best| (best, solo_j));
            Ok((
                ParetoFacts {
                    points,
                    frontier,
                    rejected,
                    best_vs_solo_j,
                },
                solo.into_iter()
                    .map(|r| KernelFacts {
                        sims: Vec::new(),
                        ..r.facts
                    })
                    .collect(),
            ))
        })
    }
}

/// Prices one replayed simulation under a scenario's tech node (the
/// benchmark's copy of the harness's private helper, so `power.price`
/// is its own span).
fn priced(spec: &ScenarioSpec, sim: fits_sim::SimResult, decode: DecodeKind) -> ConfigRun {
    let icache = cache_power(&spec.icache, &sim.icache, sim.cycles, &spec.tech);
    let chip = chip_power_with(&sim, &spec.icache, &spec.dcache, decode, &spec.tech);
    ConfigRun { sim, icache, chip }
}

/// Self time per layer for one pass, and the worst share of a root
/// span's time that no named layer covers.
#[derive(Debug, Default)]
pub struct PassLedger {
    /// Self nanoseconds per layer name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span count per layer name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Largest share of any kernel's (or member set's) traced time that
    /// no named layer covers, in percent.
    pub unattributed_max_pct: f64,
}

/// Builds the ledger of traced pass `pass` from the recorded spans.
/// A span's self time is its duration minus the union of its children's
/// intervals.
#[must_use]
pub fn ledger(spans: &[Span], pass: usize) -> PassLedger {
    let spans: Vec<&Span> = spans.iter().filter(|s| s.pass == pass).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = PassLedger::default();
    for s in &spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
        let own = dur.saturating_sub(covered);
        if s.name.starts_with("bench.kernel") || s.name.starts_with("bench.group") {
            if s.parent.is_none() && dur > 0 {
                out.unattributed_max_pct = out
                    .unattributed_max_pct
                    .max(own as f64 * 100.0 / dur as f64);
            }
            continue;
        }
        *out.self_ns.entry(s.name).or_default() += own;
        *out.calls.entry(s.name).or_default() += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// File-system failures.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"owner\": \"{}\", \"pass\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.name,
            fits_obs::json::escape(&s.owner),
            s.pass,
            s.start_ns,
            s.end_ns,
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_ns(&[], 0, 10), 0);
    }

    #[test]
    fn ledger_subtracts_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            owner: "k".to_string(),
            pass: 0,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, None, "bench.kernel", 0, 100),
            span(2, Some(1), "core.flow", 0, 60),
            span(3, Some(2), "core.synth", 10, 40),
            span(4, Some(1), "sim.record", 60, 95),
        ];
        let l = ledger(&spans, 0);
        assert_eq!(l.self_ns["core.flow"], 30);
        assert_eq!(l.self_ns["core.synth"], 30);
        assert_eq!(l.self_ns["sim.record"], 35);
        assert!((l.unattributed_max_pct - 5.0).abs() < 1e-9);
    }
}
