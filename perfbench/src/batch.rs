//! The batch workloads (`suite-n64`, `paper-n4096`, `pareto-grid`): their
//! set-up, one untimed-check pass through the public entry points
//! (`run_suite_with`, `run_pareto_with`), and the output checks shared
//! with the tracer.

use std::collections::HashMap;
use std::time::Instant;

use fits_bench::figures::{fig11_total_saving, fig5_code_size};
use fits_bench::{
    default_candidates, pareto_json, run_pareto_with, run_suite_with, Artifacts, Config,
    ParetoResults, SuiteResults,
};
use fits_kernels::kernels::{Kernel, RefOutput, Scale};
use fits_sim::{fold_emitted, RunOutput, SimResult};

use crate::inputs;

/// The per-member regression bound every shared synthesis runs under
/// (`fitspareto`'s default).
pub const EPSILON: f64 = 1.0;

/// Which batch workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Batch {
    /// The §5 suite at test scale.
    SuiteN64,
    /// The suite but `stringsearch`, at experiment scale.
    PaperN4096,
    /// Shared-ISA grids over seeded member sets at test scale.
    ParetoGrid,
}

/// A batch workload's generated inputs and reference outputs.
pub struct Setup {
    /// The workload.
    pub batch: Batch,
    /// Workload scale.
    pub scale: Scale,
    /// The seed every pass draws its kernel order or member sets from.
    pub seed: u64,
    /// Independent reference output of every kernel the pass runs.
    pub refs: HashMap<Kernel, RefOutput>,
}

impl Setup {
    /// Generates the inputs for `seed` and computes reference outputs.
    #[must_use]
    pub fn new(batch: Batch, seed: u64) -> Setup {
        let (scale, every) = match batch {
            Batch::SuiteN64 | Batch::ParetoGrid => (Scale::test(), inputs::suite_order(seed, 0)),
            Batch::PaperN4096 => (Scale::experiment(), inputs::paper_order(seed, 0)),
        };
        let refs = every.iter().map(|&k| (k, k.reference(scale))).collect();
        Setup {
            batch,
            scale,
            seed,
            refs,
        }
    }

    /// The kernels pass `pass` runs through `run_suite_with`, in its
    /// seeded order (none for `pareto-grid`).
    #[must_use]
    pub fn kernels(&self, pass: usize) -> Vec<Kernel> {
        match self.batch {
            Batch::SuiteN64 => inputs::suite_order(self.seed, pass),
            Batch::PaperN4096 => inputs::paper_order(self.seed, pass),
            Batch::ParetoGrid => Vec::new(),
        }
    }

    /// The member sets of pass `pass` (`pareto-grid`; none otherwise).
    #[must_use]
    pub fn groups(&self, pass: usize) -> Vec<Vec<Kernel>> {
        match self.batch {
            Batch::ParetoGrid => inputs::pareto_groups(self.seed, pass),
            _ => Vec::new(),
        }
    }

    /// Operations a pass attempts: kernel×config results, or pareto
    /// candidates.
    #[must_use]
    pub fn ops(&self) -> u64 {
        match self.batch {
            Batch::ParetoGrid => (inputs::PARETO_GROUPS * default_candidates().len()) as u64,
            _ => (self.refs.len() * Config::ALL.len()) as u64,
        }
    }
}

/// What the checks need from one kernel's run, whichever path ran it.
#[derive(Clone, Debug)]
pub struct KernelFacts {
    /// The kernel.
    pub kernel: Kernel,
    /// Native profiling run.
    pub native: Option<RunOutput>,
    /// FITS differential run of the verified flow.
    pub fits: Option<RunOutput>,
    /// FITS code size in bytes.
    pub fits_code_bytes: usize,
    /// Timed results, in [`Config::ALL`] order (`suite-n64`,
    /// `paper-n4096`) or the single SA-1100 point (`pareto-grid` solo).
    pub sims: Vec<SimResult>,
}

/// What the checks need from one member set's Pareto enumeration.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoFacts {
    /// `(id, code bytes, I-cache J, decoder slots, iterations)` per
    /// accepted point.
    pub points: Vec<(String, usize, f64, usize, usize)>,
    /// Frontier indices into `points`.
    pub frontier: Vec<usize>,
    /// Rejected candidates.
    pub rejected: usize,
    /// Lowest-energy frontier point's I-cache energy and the per-app
    /// total it is compared with.
    pub best_vs_solo_j: Option<(f64, f64)>,
}

impl ParetoFacts {
    /// Extracts the facts of a library enumeration.
    #[must_use]
    pub fn of(results: &ParetoResults) -> ParetoFacts {
        ParetoFacts {
            points: results
                .points
                .iter()
                .map(|p| {
                    (
                        p.id.clone(),
                        p.code_bytes,
                        p.icache_j,
                        p.decoder_slots,
                        p.iterations,
                    )
                })
                .collect(),
            frontier: results.frontier.clone(),
            rejected: results.rejected.len(),
            best_vs_solo_j: results
                .best_energy_point()
                .map(|p| (p.icache_j, results.solo_icache_j)),
        }
    }
}

/// One pass's outcome.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Wall seconds of the pass (the entry-point calls only).
    pub wall_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused, checks included.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
    /// Per-kernel facts, in run order.
    pub kernels: Vec<KernelFacts>,
    /// Per-member-set facts (`pareto-grid`).
    pub pareto: Vec<ParetoFacts>,
}

/// Checks a kernel's outputs: native against the independent reference
/// (exit code and folded emit stream), FITS against native, and every
/// timed result it carries non-empty.
#[must_use]
pub fn check_kernel(facts: &KernelFacts, refs: &HashMap<Kernel, RefOutput>) -> Option<String> {
    let name = facts.kernel.name();
    let want = refs.get(&facts.kernel)?;
    let Some(native) = facts.native else {
        return Some(format!("{name}: no native run recorded"));
    };
    if native.exit_code != want.exit_code || native.emitted != fold_emitted(&want.emitted) {
        return Some(format!("{name}: native output differs from the reference"));
    }
    match facts.fits {
        Some(fits) if fits.exit_code == native.exit_code && fits.emitted == native.emitted => {}
        _ => return Some(format!("{name}: FITS output differs from native")),
    }
    if facts.sims.iter().any(|s| s.retired == 0 || s.cycles == 0) {
        return Some(format!("{name}: empty timed result"));
    }
    None
}

/// Checks a Pareto enumeration: its archive validates against the
/// `powerfits-pareto-v1` schema and the frontier is exactly the
/// non-dominated set of the accepted points.
#[must_use]
pub fn check_pareto(results: &ParetoResults) -> Option<String> {
    let counts = match fits_obs::json::validate_pareto_json(&pareto_json(results)) {
        Ok(counts) => counts,
        Err(e) => return Some(format!("PARETO archive invalid: {e}")),
    };
    if counts.points != results.points.len() || counts.frontier != results.frontier.len() {
        return Some("PARETO archive counts disagree with the results".to_string());
    }
    let axes: Vec<[f64; 3]> = results
        .points
        .iter()
        .map(fits_bench::ParetoPoint::axes)
        .collect();
    if recheck_frontier(&axes) != results.frontier {
        return Some("frontier is not the non-dominated set".to_string());
    }
    None
}

/// The non-dominated points, recomputed independently of
/// `fits_core::pareto_frontier`.
fn recheck_frontier(axes: &[[f64; 3]]) -> Vec<usize> {
    (0..axes.len())
        .filter(|&i| {
            !axes
                .iter()
                .any(|a| (0..3).all(|k| a[k] <= axes[i][k]) && (0..3).any(|k| a[k] < axes[i][k]))
        })
        .collect()
}

/// Suite-level modelled figures: Fig. 11 FITS8-vs-ARM16 I-cache saving
/// (percent, suite average) and Fig. 5 FITS/ARM code size (suite average).
/// The kernels are put in suite order first, so the averages are summed
/// in the same order, and read the same to the last digit, whatever the
/// seed.
#[must_use]
pub fn suite_figures(suite: &SuiteResults) -> (f64, f64) {
    let mut suite = suite.clone();
    suite
        .kernels
        .sort_by_key(|kr| Kernel::ALL.iter().position(|&k| k == kr.kernel));
    (
        fig11_total_saving(&suite).column_mean(1) * 100.0,
        fig5_code_size(&suite).column_mean(2),
    )
}

/// Runs untraced pass `pass` through the public entry points, with a
/// fresh [`Artifacts`], then checks every output (after the clock stops).
/// `baseline` is an earlier pass over the same kernels (in any order);
/// results must repeat it exactly.
#[must_use]
pub fn untraced_pass(
    setup: &Setup,
    pass: usize,
    baseline: Option<&PassOutcome>,
) -> (PassOutcome, Option<SuiteResults>) {
    let artifacts = Artifacts::new();
    let mut out = PassOutcome {
        attempted: setup.ops(),
        ..PassOutcome::default()
    };
    let mut suite = None;
    match setup.batch {
        Batch::SuiteN64 | Batch::PaperN4096 => {
            let start = Instant::now();
            let result = run_suite_with(&artifacts, &setup.kernels(pass), setup.scale);
            out.wall_s = start.elapsed().as_secs_f64();
            match result {
                Ok(results) => {
                    out.kernels = results
                        .kernels
                        .iter()
                        .map(|kr| KernelFacts {
                            kernel: kr.kernel,
                            native: artifacts
                                .profile(kr.kernel, setup.scale)
                                .ok()
                                .and_then(|p| p.run),
                            fits: artifacts
                                .flow(kr.kernel, setup.scale)
                                .ok()
                                .and_then(|f| f.fits_run),
                            fits_code_bytes: kr.fits_code_bytes,
                            sims: kr.runs.iter().map(|r| r.sim.clone()).collect(),
                        })
                        .collect();
                    suite = Some(results);
                }
                Err(e) => out.problems.push(format!("run_suite_with: {e}")),
            }
        }
        Batch::ParetoGrid => {
            let candidates = default_candidates();
            let groups = setup.groups(pass);
            let start = Instant::now();
            let results: Vec<_> = groups
                .iter()
                .map(|g| run_pareto_with(&artifacts, g, setup.scale, EPSILON, &candidates))
                .collect();
            out.wall_s = start.elapsed().as_secs_f64();
            for (group, result) in groups.iter().zip(results) {
                match result {
                    Ok(r) => {
                        // A rejected candidate (regression bound, or no
                        // translation within the budget) is an answer the
                        // archive records, not a failure; the accept ratio
                        // tracks it.
                        if let Some(problem) = check_pareto(&r) {
                            out.problems.push(problem);
                            out.failed += candidates.len() as u64;
                        }
                        out.pareto.push(ParetoFacts::of(&r));
                    }
                    Err(e) => {
                        out.problems.push(format!("run_pareto_with: {e}"));
                        out.failed += candidates.len() as u64;
                    }
                }
                out.kernels.extend(group.iter().map(|&k| {
                    KernelFacts {
                        kernel: k,
                        native: artifacts.profile(k, setup.scale).ok().and_then(|p| p.run),
                        fits: artifacts.flow(k, setup.scale).ok().and_then(|f| f.fits_run),
                        fits_code_bytes: artifacts
                            .flow(k, setup.scale)
                            .map_or(0, |f| f.fits.code_bytes()),
                        sims: Vec::new(),
                    }
                }));
            }
            if pass == 0 {
                // The pareto pass prices no ARM baseline; the suite figures
                // come from the same (now warm) artifacts, off the clock.
                match run_suite_with(&artifacts, Kernel::ALL, setup.scale) {
                    Ok(results) => suite = Some(results),
                    Err(e) => out.problems.push(format!("run_suite_with: {e}")),
                }
            }
        }
    }
    check_pass(setup, pass, &mut out, baseline);
    (out, suite)
}

/// Output checks common to both paths: every kernel against its
/// reference, and (given a baseline pass) every result identical to the
/// baseline's. Returns whether the results matched the baseline (true
/// without one).
pub fn check_pass(
    setup: &Setup,
    pass: usize,
    out: &mut PassOutcome,
    baseline: Option<&PassOutcome>,
) -> bool {
    // Pareto kernels are solo baselines, not operations of their own: a
    // bad one fails every candidate of the pass.
    let (per_kernel, timed) = match setup.batch {
        Batch::ParetoGrid => (out.attempted, 0),
        _ => (Config::ALL.len() as u64, Config::ALL.len()),
    };
    let expected =
        setup.kernels(pass).len() + setup.groups(pass).iter().map(Vec::len).sum::<usize>();
    if out.kernels.len() != expected {
        out.problems.push(format!(
            "{} of {expected} kernels reported",
            out.kernels.len()
        ));
        out.failed = out.attempted;
    }
    for facts in &out.kernels {
        let problem = if timed > 0 && facts.sims.len() != timed {
            Some(format!(
                "{}: {} timed results",
                facts.kernel.name(),
                facts.sims.len()
            ))
        } else {
            check_kernel(facts, &setup.refs)
        };
        if let Some(problem) = problem {
            out.problems.push(problem);
            out.failed += per_kernel;
        }
    }
    let matched = baseline.is_none_or(|base| {
        base.pareto == out.pareto
            && base.kernels.len() == out.kernels.len()
            && out.kernels.iter().all(|b| {
                base.kernels.iter().any(|a| {
                    a.kernel == b.kernel
                        && a.fits_code_bytes == b.fits_code_bytes
                        && a.sims == b.sims
                })
            })
    });
    if !matched {
        out.problems
            .push("results differ from an earlier pass of the same kernels".to_string());
        out.failed = out.attempted;
    }
    out.failed = out.failed.min(out.attempted);
    matched
}
