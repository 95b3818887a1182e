//! `perfbench` — the PowerFITS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-n64 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `suite-n64`, `paper-n4096`, `pareto-grid` (batch, through
//! `run_suite_with` / `run_pareto_with`) and `serve-mix` (HTTP against an
//! in-process `fitsd`). `--trace 0` measures the end-to-end metrics;
//! `--trace 1` runs the layer-by-layer tracer and reports the
//! per-layer metrics. Every output is checked. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod batch;
mod inputs;
mod layers;
mod serve;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::Instant;

use batch::{Batch, PassOutcome, Setup};
use stats::Summary;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Daemon set-ups per `serve-mix` run (each spawns and warms a daemon).
const SERVE_SETUP_REPEATS: usize = 3;

/// Fewest passes a measurement may rest on.
const MIN_PASSES: usize = 3;

/// Most bodies byte-compared against `PostRequest::compute` per run.
const BYTE_COMPARE_LIMIT: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload suite-n64|paper-n4096|pareto-grid|serve-mix \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Set when the tracer disagreed with the entry points.
    mismatch: bool,
}

impl Report {
    fn absorb(&mut self, pass: &PassOutcome) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.problems.extend(pass.problems.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && !self.mismatch && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a run's result and spans are written (inside the package, so a
/// run only ever writes inside its own checkout).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn median(v: &[f64]) -> f64 {
    Summary::of(v).map_or(0.0, |s| s.median)
}

fn say(line: &str) {
    println!("perfbench: {line}");
}

fn main() {
    let args = parse_args();
    // The provenance stamp inside PARETO archives asks git for a commit;
    // keep it from searching directories above this checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let batch = match args.workload.as_str() {
        "suite-n64" => Some(Batch::SuiteN64),
        "paper-n4096" => Some(Batch::PaperN4096),
        "pareto-grid" => Some(Batch::ParetoGrid),
        "serve-mix" => None,
        other => usage(&format!("unknown workload {other}")),
    };
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        std::process::exit(1);
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let report = match (batch, args.trace) {
        (Some(b), false) => batch_untraced(b, &args),
        (Some(b), true) => batch_traced(b, &args, &dir.join(format!("{stem}-spans.jsonl"))),
        (None, false) => serve_untraced(&args),
        (None, true) => serve_traced(&args, &dir.join(format!("{stem}-access.jsonl"))),
    };
    for p in report.problems.iter().take(20) {
        say(&format!("FAILED CHECK: {p}"));
    }
    for m in &report.metrics {
        say(&format!("{:<28} {:>14.6} {}", m.name, m.value, m.unit));
    }
    let line = report.json();
    if let Err(e) = std::fs::write(dir.join(format!("{stem}.json")), format!("{line}\n")) {
        eprintln!("perfbench: writing the result: {e}");
    }
    // A run that printed its result exits 0 whatever the checks found:
    // `correct` and `failed` carry the verdict.
    println!("{line}");
}

/// Times `SETUP_REPEATS` set-ups; returns the last and the median time.
fn timed_setups(batch: Batch, seed: u64) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = Setup::new(batch, seed);
        times.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    say(&format!(
        "setup_s {}",
        Summary::of(&times).map_or_else(String::new, |s| s.describe("s"))
    ));
    (setup.expect("at least one set-up"), median(&times))
}

/// Untraced passes for `seconds` (at least [`MIN_PASSES`]). The suite
/// figures come from the first pass. On the suite workloads every pass
/// runs the same kernels (in its own order), so every later pass must
/// repeat the first exactly; `pareto-grid` deals new member sets each
/// pass.
fn untraced_passes(
    setup: &Setup,
    seconds: f64,
    report: &mut Report,
) -> (Vec<f64>, Option<(f64, f64)>) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut baseline = None;
    let mut figures = None;
    loop {
        let i = walls.len();
        let (pass, suite) = batch::untraced_pass(setup, i, baseline.as_ref());
        report.absorb(&pass);
        walls.push(pass.wall_s);
        if i == 0 {
            figures = suite.as_ref().map(batch::suite_figures);
            if setup.batch != Batch::ParetoGrid {
                baseline = Some(pass);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_PASSES && elapsed + median(&walls) > seconds {
            break;
        }
    }
    (walls, figures)
}

fn batch_untraced(batch: Batch, args: &Args) -> Report {
    let mut report = Report::default();
    let (setup, setup_s) = timed_setups(batch, args.seed);
    let (walls, figures) = untraced_passes(&setup, args.seconds, &mut report);
    let pass = Summary::of(&walls).expect("passes ran");
    say(&format!("pass_s {}", pass.describe("s")));
    let (saving, ratio) = figures.unwrap_or_else(|| {
        report.problems.push("no suite figures".to_string());
        (0.0, 0.0)
    });
    // Every workload reports every end-to-end metric. A batch workload
    // has no HTTP requests, so its serve_* metrics restate the pass-time
    // distribution, a pass being one cold request issued when the last
    // completed; the service's own figures come from serve-mix.
    let mut v = Values::default();
    v.set("pass_s", pass.median);
    v.set("setup_s", setup_s);
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("icache_saving_pct", saving);
    v.set("code_ratio", ratio);
    v.set("serve_p50_ms", pass.median * 1e3);
    v.set("serve_p99_ms", pass.high_or_max() * 1e3);
    v.set("serve_miss_p50_ms", pass.median * 1e3);
    v.set(
        "serve_max_rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    report.metrics = v.metrics(END_TO_END);
    report
}

/// Metric values by name, emitted in the order (and with the units) of
/// one of the `BENCHMARK.json` lists; a per-layer metric the workload
/// does not exercise reads zero.
#[derive(Default)]
struct Values(std::collections::BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn metrics(&self, spec: &[(&'static str, &'static str)]) -> Vec<Metric> {
        spec.iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Every end-to-end metric and its unit, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("icache_saving_pct", "%"),
    ("code_ratio", "ratio"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_miss_p50_ms", "ms"),
    ("serve_max_rps", "1/s"),
];

/// Every per-layer metric and its unit, as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.synth_ms", "ms"),
    ("core.synth_calls", "count"),
    ("core.synth_share_pct", "%"),
    ("core.profile_ms", "ms"),
    ("core.profile_minstr", "Minstr"),
    ("core.flow_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("sim.record_ms", "ms"),
    ("sim.record_minstr", "Minstr"),
    ("sim.price_ms", "ms"),
    ("sim.price_lane_minstr", "Minstr"),
    ("power.price_ms", "ms"),
    ("core.translate_ms", "ms"),
    ("verify.validate_ms", "ms"),
    ("kernels.compile_ms", "ms"),
    ("isa.thumb_ms", "ms"),
    ("sim.block_compile_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.execute_p50_ms", "ms"),
    ("serve.parse_p50_ms", "ms"),
    ("serve.cache_lookup_p50_ms", "ms"),
    ("serve.coalesce_wait_p50_ms", "ms"),
    ("serve.serialize_p50_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.shed_count", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_max_pct", "%"),
    ("fail_share", "ratio"),
    ("shared_icache_penalty_pct", "%"),
];

fn batch_traced(batch: Batch, args: &Args, spans_path: &std::path::Path) -> Report {
    let mut report = Report::default();
    let (setup, _) = timed_setups(batch, args.seed);
    let rec = traced::Recorder::new();
    let tracer = traced::Tracer::new(std::sync::Arc::clone(&rec));

    // Untraced and traced passes of the same inputs alternate, so host
    // drift hits both alike; each traced pass must reproduce its untraced
    // partner, and the overhead is read from the pairs.
    let start = Instant::now();
    let mut first: Option<PassOutcome> = None;
    let mut untraced = Vec::new();
    let mut walls = Vec::new();
    let mut counts = Vec::new();
    loop {
        let i = walls.len();
        let (plain, _) = batch::untraced_pass(&setup, i, None);
        report.absorb(&plain);
        untraced.push(plain.wall_s);

        rec.begin_pass(i);
        let mut c = traced::Counts::default();
        let mut pass = tracer.pass(&setup, i, &mut c);
        if !batch::check_pass(&setup, i, &mut pass, Some(&plain)) {
            report.mismatch = true;
        }
        report.absorb(&pass);
        walls.push(pass.wall_s);
        counts.push(c);
        first.get_or_insert(plain);
        let pair = median(&untraced) + median(&walls);
        if walls.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + pair > args.seconds {
            break;
        }
    }
    let spans = rec.spans();
    if let Err(e) = traced::write_spans(spans_path, &spans) {
        report.problems.push(format!("writing spans: {e}"));
    }
    if report.mismatch {
        say("tracer results differ from the entry points: no per-layer numbers");
        return report;
    }

    let ledgers: Vec<traced::PassLedger> = (0..walls.len())
        .map(|i| traced::ledger(&spans, i))
        .collect();
    let per_pass = |f: &dyn Fn(usize) -> f64| median(&(0..walls.len()).map(f).collect::<Vec<_>>());
    let ms_of = |layer: &str| {
        per_pass(&|i| ledgers[i].self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6)
    };
    let mut l = Values::default();
    // A layer's self time is reported as `<layer>_ms` where BENCHMARK.json
    // lists one (the serve.* layers have their own latency metrics).
    for layer in layers::LAYERS {
        let name = format!("{}_ms", layer.name);
        if let Some(&(metric, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
            l.set(metric, ms_of(layer.name));
        }
    }
    let attributed = per_pass(&|i| ledgers[i].self_ns.values().sum::<u64>() as f64 / 1e6);
    l.set(
        "core.synth_calls",
        per_pass(&|i| ledgers[i].calls.get("core.synth").copied().unwrap_or(0) as f64),
    );
    l.set(
        "core.synth_share_pct",
        ms_of("core.synth") * 100.0 / attributed.max(f64::MIN_POSITIVE),
    );
    l.set(
        "core.profile_minstr",
        per_pass(&|i| counts[i].profiled_instr as f64 / 1e6),
    );
    l.set(
        "sim.record_minstr",
        per_pass(&|i| counts[i].recorded_instr as f64 / 1e6),
    );
    l.set(
        "sim.price_lane_minstr",
        per_pass(&|i| counts[i].priced_lane_instr as f64 / 1e6),
    );
    if batch == Batch::ParetoGrid {
        // `pareto-grid` is not listed in BENCHMARK.json (its archive
        // check fails at this commit), so its own figures are printed,
        // not reported.
        let (cand, acc) = counts
            .iter()
            .fold((0, 0), |(c, a), x| (c + x.candidates, a + x.accepted));
        let (best, solo) = first
            .as_ref()
            .map_or(&[][..], |b| b.pareto.as_slice())
            .iter()
            .filter_map(|p| p.best_vs_solo_j)
            .fold((0.0, 0.0), |(b, s), (x, y)| (b + x, s + y));
        say(&format!(
            "pareto: accept ratio {:.4}, multi iterations {:.0} per pass, \
             shared I-cache penalty {:.4}%",
            acc as f64 / cand.max(1) as f64,
            per_pass(&|i| counts[i].multi_iterations as f64),
            (best / solo - 1.0) * 100.0
        ));
    }
    l.set(
        "bench.unattributed_max_pct",
        per_pass(&|i| ledgers[i].unattributed_max_pct),
    );
    let overheads: Vec<f64> = walls
        .iter()
        .zip(&untraced)
        .map(|(t, u)| (t / u - 1.0) * 100.0)
        .collect();
    l.set("bench.trace_overhead_pct", median(&overheads));
    l.set(
        "fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    say(&format!(
        "traced {} passes ({}), untraced {} passes ({})",
        walls.len(),
        Summary::of(&walls).map_or_else(String::new, |s| s.describe("s")),
        untraced.len(),
        Summary::of(&untraced).map_or_else(String::new, |s| s.describe("s")),
    ));
    let mut ranking: Vec<(&str, f64)> = layers::LAYERS
        .iter()
        .map(|x| (x.name, ms_of(x.name)))
        .filter(|(_, v)| *v > 0.0)
        .collect();
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ms) in ranking {
        say(&format!(
            "self time {name:<20} {ms:>10.2} ms  {:>5.1}%",
            ms * 100.0 / attributed.max(f64::MIN_POSITIVE)
        ));
    }
    report.metrics = l.metrics(PER_LAYER);
    report
}

/// Spawns and warms `SERVE_SETUP_REPEATS` daemons in turn, keeping the
/// last; returns it and the median set-up time.
fn serve_setups(
    report: &mut Report,
    log: Option<&std::path::Path>,
    repeats: usize,
) -> Option<(serve::Started, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..repeats {
        // Only the kept daemon writes the access log.
        let log = if i + 1 == repeats { log } else { None };
        match serve::start(log) {
            Ok(started) => {
                report.attempted += started.attempted as u64;
                report.failed += started.failed as u64;
                times.push(started.setup_s);
                if let Some(old) = kept.replace(started) {
                    let old: serve::Started = old;
                    old.handle.stop();
                }
            }
            Err(e) => {
                // A daemon that cannot start is one failed operation.
                report.attempted += 1;
                report.failed += 1;
                report.problems.push(e);
                return None;
            }
        }
    }
    say(&format!(
        "setup_s {}",
        Summary::of(&times).map_or_else(String::new, |s| s.describe("s"))
    ));
    kept.map(|k| (k, median(&times)))
}

/// Accounts a batch of samples into the report.
fn absorb_samples(report: &mut Report, samples: &[serve::Sample]) {
    report.attempted += samples.len() as u64;
    let bad = samples.iter().filter(|s| !s.valid).count();
    report.failed += bad as u64;
    if bad > 0 {
        report.problems.push(format!(
            "{bad} of {} responses failed their checks",
            samples.len()
        ));
    }
}

/// Distinct keys of the hot set the `serve-mix` pass replays.
const HOT_KEYS: usize = 128;

/// Requests in one `serve-mix` pass.
const HOT_PASS_REQUESTS: usize = 2048;

/// Chunks the reference-rate step is cut into; a pass runs after each,
/// so slow drifts of the host hit passes and latencies alike.
const REF_CHUNKS: u64 = 8;

/// One `serve-mix` pass: the [`HOT_KEYS`] keys requested most so far,
/// cycled to [`HOT_PASS_REQUESTS`] requests back to back. An untimed
/// round over the hot keys first re-caches any the traffic evicted, so a
/// pass measures the warm path (HTTP, parse, cache lookup, serialize,
/// write) at full speed, with the CPUs kept awake ([`serve::awake`]).
fn hot_pass(
    addr: std::net::SocketAddr,
    jobs: &[Vec<serve::Job>; 3],
    samples: &[serve::Sample],
    report: &mut Report,
) -> f64 {
    let mut counts: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    for s in samples {
        *counts.entry((s.class, s.key)).or_default() += 1;
    }
    let mut hot: Vec<((usize, usize), usize)> = counts.into_iter().collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(HOT_KEYS);
    let job = |i: usize| &jobs[hot[i % hot.len()].0 .0][hot[i % hot.len()].0 .1];
    let warm: Vec<&serve::Job> = (0..hot.len()).map(job).collect();
    let list: Vec<&serve::Job> = (0..HOT_PASS_REQUESTS).map(job).collect();
    let (_, warm_samples) = serve::closed_loop(addr, &warm);
    absorb_samples(report, &warm_samples);
    let (wall, pass_samples) = serve::awake(|| serve::closed_loop(addr, &list));
    absorb_samples(report, &pass_samples);
    wall
}

fn serve_untraced(args: &Args) -> Report {
    let mut report = Report::default();
    let Some((started, setup_s)) = serve_setups(&mut report, None, SERVE_SETUP_REPEATS) else {
        return report;
    };
    let addr = started.handle.addr;
    let jobs = serve::catalogue();
    let sizes = [jobs[0].len(), jobs[1].len(), jobs[2].len()];
    // 72% of the time at the reference rate (in chunks, each followed by
    // a pass), 8% for each faster rate.
    let step_s = args.seconds * 0.08;
    let chunk_s = args.seconds * 0.72 / REF_CHUNKS as f64;

    // The reference rate runs in chunks, each followed by a pass; the
    // chunks together are the reference step.
    let mut reference = serve::Step {
        samples: Vec::new(),
        abandoned: 0,
        wall_s: 0.0,
    };
    let mut passes = Vec::new();
    for chunk in 0..REF_CHUNKS {
        let arrivals = serve::arrivals(args.seed, chunk, serve::REF_RATE, chunk_s, sizes);
        let step = serve::open_loop(addr, &jobs, &arrivals, 8);
        absorb_samples(&mut report, &step.samples);
        reference.samples.extend(step.samples);
        reference.abandoned += step.abandoned;
        reference.wall_s += step.wall_s;
        passes.push(hot_pass(addr, &jobs, &reference.samples, &mut report));
    }
    if reference.abandoned > 0 {
        report.problems.push(format!(
            "the reference rate fell behind: {} arrivals abandoned",
            reference.abandoned
        ));
    }
    // The throughput sustained at the highest rate that met the limit, so
    // that rate and every lower one met it.
    let mut max_rps = 0.0;
    let mut met = serve::step_met(&reference);
    if met {
        max_rps = reference.throughput();
    }
    for (i, &rate) in serve::LADDER.iter().enumerate().skip(1) {
        let arrivals = serve::arrivals(args.seed, REF_CHUNKS + i as u64, rate, step_s, sizes);
        let step = serve::open_loop(addr, &jobs, &arrivals, usize::MAX);
        absorb_samples(&mut report, &step.samples);
        let step_met = serve::step_met(&step);
        let lat = Summary::of(
            &step
                .samples
                .iter()
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        );
        say(&format!(
            "rate {rate:>5} rps: {} abandoned={} met={step_met} throughput={:.1}/s",
            lat.map_or_else(String::new, |s| s.describe("ms")),
            step.abandoned,
            step.throughput(),
        ));
        met = met && step_met;
        if met {
            max_rps = step.throughput();
        }
    }
    started.handle.stop();

    let (compared, bad) = serve::byte_compare(&jobs, &reference.samples, BYTE_COMPARE_LIMIT);
    report.attempted += compared as u64;
    report.failed += bad.len() as u64;
    report.problems.extend(bad);

    let reference = reference.samples;
    let latency = Summary::of(&reference.iter().map(|s| s.latency_ms).collect::<Vec<_>>())
        .expect("reference rate ran");
    let misses: Vec<f64> = reference
        .iter()
        .filter(|s| s.cache == serve::CacheUse::Miss)
        .map(|s| s.service_ms)
        .collect();
    let miss = Summary::of(&misses);
    let hits = reference
        .iter()
        .filter(|s| s.cache == serve::CacheUse::Hit)
        .count();
    say(&format!(
        "rate {:>5} rps: {} hit ratio {:.3}",
        serve::REF_RATE,
        latency.describe("ms"),
        hits as f64 / reference.len() as f64
    ));
    say(&format!(
        "misses {}",
        miss.as_ref().map_or_else(String::new, |s| s.describe("ms"))
    ));
    say(&format!(
        "pass over the hot keys {}",
        Summary::of(&passes).map_or_else(String::new, |s| s.describe("s"))
    ));
    let mut v = Values::default();
    v.set("pass_s", median(&passes));
    v.set("setup_s", setup_s);
    v.set("peak_rss_mb", peak_rss_mb());
    v.set("icache_saving_pct", started.icache_saving_pct);
    v.set("code_ratio", started.code_ratio);
    v.set("serve_p50_ms", latency.median);
    v.set("serve_p99_ms", latency.high_or_max());
    v.set("serve_miss_p50_ms", miss.map_or(0.0, |m| m.median));
    v.set("serve_max_rps", max_rps);
    report.metrics = v.metrics(END_TO_END);
    report
}

fn serve_traced(args: &Args, log: &std::path::Path) -> Report {
    let mut report = Report::default();
    let jobs = serve::catalogue();
    let sizes = [jobs[0].len(), jobs[1].len(), jobs[2].len()];
    let arrivals = serve::arrivals(args.seed, 0, serve::REF_RATE, args.seconds * 0.4, sizes);

    // Untraced then traced (access log on), same arrivals, fresh daemons.
    let mut p50 = Vec::new();
    let mut traced_samples = Vec::new();
    let mut penalty = 0.0;
    for traced in [false, true] {
        let Some((started, _)) = serve_setups(&mut report, traced.then_some(log), 1) else {
            return report;
        };
        let samples = serve::open_loop(started.handle.addr, &jobs, &arrivals, usize::MAX).samples;
        absorb_samples(&mut report, &samples);
        penalty = started.shared_penalty_pct;
        started.handle.stop();
        p50.push(median(
            &samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>(),
        ));
        traced_samples = samples;
    }
    let phases = match serve::read_access_log(log) {
        Ok(p) => p,
        Err(e) => {
            report.problems.push(e);
            return report;
        }
    };

    let mut l = Values::default();
    let mut per_phase: std::collections::BTreeMap<&'static str, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut totals: std::collections::BTreeMap<&'static str, (f64, f64)> =
        std::collections::BTreeMap::new();
    let mut miss_execute = Vec::new();
    for s in &traced_samples {
        let Some(entries) = phases.get(&s.trace) else {
            report
                .problems
                .push(format!("trace {} missing from the access log", s.trace));
            continue;
        };
        for (path, ms, count) in entries {
            let Some(layer) = layers::for_phase(path) else {
                report
                    .problems
                    .push(format!("access-log phase {path:?} has no layer"));
                continue;
            };
            per_phase.entry(layer).or_default().push(*ms);
            let t = totals.entry(layer).or_default();
            t.0 += ms;
            t.1 += *count as f64;
            if layer == "serve.execute" && s.cache == serve::CacheUse::Miss {
                miss_execute.push(*ms);
            }
        }
    }
    let p50_of = |layer: &str| per_phase.get(layer).map_or(0.0, |v| median(v));
    l.set("serve.queue_wait_p50_ms", p50_of("serve.queue_wait"));
    l.set(
        "serve.queue_wait_p99_ms",
        per_phase
            .get("serve.queue_wait")
            .and_then(|v| Summary::of(v))
            .map_or(0.0, |s| s.high_or_max()),
    );
    l.set("serve.execute_p50_ms", median(&miss_execute));
    l.set("serve.parse_p50_ms", p50_of("serve.parse"));
    l.set("serve.cache_lookup_p50_ms", p50_of("serve.cache_lookup"));
    l.set("serve.coalesce_wait_p50_ms", p50_of("serve.coalesce_wait"));
    l.set("serve.serialize_p50_ms", p50_of("serve.serialize"));
    l.set("serve.write_p50_ms", p50_of("serve.write"));
    let n = traced_samples.len().max(1) as f64;
    let share =
        |c: serve::CacheUse| traced_samples.iter().filter(|s| s.cache == c).count() as f64 / n;
    l.set("serve.hit_ratio", share(serve::CacheUse::Hit));
    l.set("serve.coalesced_ratio", share(serve::CacheUse::Coalesced));
    l.set(
        "serve.shed_count",
        traced_samples.iter().filter(|s| s.status == 503).count() as f64,
    );
    let late: Vec<f64> = traced_samples.iter().filter_map(|s| s.late_ms).collect();
    l.set(
        "loadgen.late_p99_ms",
        Summary::of(&late).map_or(0.0, |s| s.high_or_max()),
    );
    for (layer, name) in [
        ("core.profile", "core.profile_ms"),
        ("core.synth", "core.synth_ms"),
        ("core.translate", "core.translate_ms"),
        ("verify.validate", "verify.validate_ms"),
        ("core.execute", "core.execute_ms"),
    ] {
        l.set(name, totals.get(layer).map_or(0.0, |t| t.0));
    }
    l.set(
        "core.synth_calls",
        totals.get("core.synth").map_or(0.0, |t| t.1),
    );
    let execute_total = totals.get("serve.execute").map_or(0.0, |t| t.0);
    l.set(
        "core.synth_share_pct",
        totals.get("core.synth").map_or(0.0, |t| t.0) * 100.0
            / execute_total.max(f64::MIN_POSITIVE),
    );
    l.set("bench.trace_overhead_pct", (p50[1] / p50[0] - 1.0) * 100.0);
    l.set(
        "fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    l.set("shared_icache_penalty_pct", penalty);
    report.metrics = l.metrics(PER_LAYER);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the code emits are exactly those `BENCHMARK.json`
    /// declares, in name and unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = fits_obs::json::parse(&text).unwrap();
        for (key, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(fits_obs::json::Value::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            let declared: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(fits_obs::json::Value::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, spec.to_vec(), "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metrics = Values::default().metrics(END_TO_END);
        let doc = fits_obs::json::parse(&report.json()).unwrap();
        let fits_obs::json::Value::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&fits_obs::json::Value::Bool(true)));
    }
}
