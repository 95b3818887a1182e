//! `serve-mix`: an open loop of seeded arrivals against an in-process
//! `fitsd` (default configuration), over HTTP.
//!
//! Requests mix `/simulate`, `/synthesize` and `/synthesize-multi` with
//! Zipf-skewed key popularity over a key space larger than the daemon's
//! 256-entry result cache, so hits, misses, coalesced joins and evictions
//! all occur. Each request is timed from the moment it was due, so a
//! stall also charges the wait it imposes on later arrivals.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fits_kernels::kernels::Kernel;
use fits_obs::json::{self, Value};
use fits_rng::StdRng;
use fits_serve::{client, spawn, validate_serve_json, PostRequest, ServerConfig, ServerHandle};

use crate::inputs::shuffle;
use crate::stats::Summary;

/// Load-generator connections (and threads): at most one per CPU of the
/// 2-core reference machine.
pub const CONNECTIONS: usize = 2;

/// The rate at which `serve_p50_ms` / `serve_p99_ms` are reported. A
/// run spends 72% of its time at this rate: 1008 requests in 28 s, the
/// shortest run with a p99 that has ten samples beyond it. At 100/s the two daemon workers ran
/// near saturation and cold requests queued behind each other.
pub const REF_RATE: f64 = 50.0;

/// The fixed rates `serve_max_rps` is read from, ascending. On the
/// 2-core reference machine the mix saturates near 1000 requests/s, so
/// the upper rates sit well clear of it on both sides.
pub const LADDER: [f64; 3] = [REF_RATE, 250.0, 2500.0];

/// A step is abandoned (and fails) once the generator runs this far
/// behind schedule: the backlog is growing without bound.
const ABANDON_MS: f64 = 4.0 * LIMIT_MS;

/// Latency limit on the high percentile for a rate to count as met.
pub const LIMIT_MS: f64 = 500.0;

/// Share of the requests of each endpoint class, in catalogue order.
const MIX: [(&str, f64); 3] = [
    ("/simulate", 0.55),
    ("/synthesize", 0.3),
    ("/synthesize-multi", 0.15),
];

/// Fixes which keys are popular (a seeded permutation per endpoint).
/// With the popularity drawn per seed, the cost of the keys that miss
/// changed with the seed and the miss latency spread ~0.45 of its median
/// across ten seeds.
const POPULARITY_SEED: u64 = 0x5eed_f175;

/// Zipf exponent of key popularity within an endpoint.
const ZIPF_S: f64 = 1.5;

/// One request kind: target plus JSON body.
#[derive(Clone, Debug)]
pub struct Job {
    /// POST target.
    pub target: &'static str,
    /// JSON body.
    pub body: String,
}

fn simulate(kernel: Kernel, n: u32, icache: u32) -> Job {
    Job {
        target: "/simulate",
        body: format!(
            "{{\"kernel\": \"{}\", \"scale\": {n}, \"icache_bytes\": {icache}}}",
            kernel.name()
        ),
    }
}

fn synthesize(kernel: Kernel, n: u32, dict: u32) -> Job {
    Job {
        target: "/synthesize",
        body: format!(
            "{{\"kernel\": \"{}\", \"scale\": {n}, \"synth\": {{\"max_dict_bits\": {dict}}}}}",
            kernel.name()
        ),
    }
}

fn multi(a: Kernel, b: Kernel) -> Job {
    Job {
        target: "/synthesize-multi",
        body: format!("{{\"kernels\": [\"{}\", \"{}\"]}}", a.name(), b.name()),
    }
}

/// The key space, one list per endpoint class of [`MIX`]: 168 simulate
/// keys, 126 synthesize keys and 210 kernel pairs — 504 in all, about
/// twice the result cache.
#[must_use]
pub fn catalogue() -> [Vec<Job>; 3] {
    let mut sims = Vec::new();
    let mut synths = Vec::new();
    let mut multis = Vec::new();
    for (i, &k) in Kernel::ALL.iter().enumerate() {
        for n in [64, 96] {
            for icache in [4096, 8192, 16384, 32768] {
                sims.push(simulate(k, n, icache));
            }
            for dict in [4, 6, 8] {
                synths.push(synthesize(k, n, dict));
            }
        }
        for &other in &Kernel::ALL[i + 1..] {
            multis.push(multi(k, other));
        }
    }
    [sims, synths, multis]
}

/// The cache warm-up: the suite at n=64 on both paper cache sizes and
/// its per-app synthesis, plus a few shared ISAs. Fixed (not seeded), so
/// the modelled figures read from these bodies never depend on the seed.
#[must_use]
pub fn warmup() -> Vec<Job> {
    let mut jobs = Vec::new();
    for &k in Kernel::ALL {
        jobs.push(simulate(k, 64, 16384));
        jobs.push(simulate(k, 64, 8192));
        jobs.push(synthesize(k, 64, 6));
    }
    for pair in Kernel::ALL.chunks(2).filter(|c| c.len() == 2) {
        jobs.push(multi(pair[0], pair[1]));
    }
    jobs
}

/// One scheduled arrival.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Seconds after the step starts.
    pub due_s: f64,
    /// Endpoint class (index into [`MIX`]).
    pub class: usize,
    /// Key index within the class.
    pub key: usize,
}

/// `round(rate × seconds)` seeded arrivals spread over `seconds`, with
/// exponential gaps (Poisson-like, rescaled to end at `seconds`).
///
/// The request mix is stratified rather than drawn: each endpoint class
/// gets its [`MIX`] share of the arrivals, and a class's keys sit at the
/// evenly spaced quantiles `(i + u) / n` of its Zipf distribution, with
/// the offset `u` set by the step. So every seed sends the same requests
/// of a step, and the seed decides their order and arrival times. With
/// independent draws instead, the number of costly cold keys varied
/// between seeds and the tail latency spread ~0.5 of its median. Which
/// keys are popular is part of the workload and fixed
/// ([`POPULARITY_SEED`]); different steps touch different tail keys.
#[must_use]
pub fn arrivals(seed: u64, step: u64, rate: f64, seconds: f64, sizes: [usize; 3]) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(POPULARITY_SEED);
    let perms: Vec<Vec<usize>> = sizes
        .iter()
        .map(|&n| {
            let mut p: Vec<usize> = (0..n).collect();
            shuffle(&mut rng, &mut p);
            p
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ (step + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = (rate * seconds).round() as usize;
    let mut requests = Vec::with_capacity(n);
    let mut assigned = 0;
    for (class, (_, share)) in MIX.iter().enumerate() {
        let count = if class + 1 == MIX.len() {
            n - assigned
        } else {
            ((n as f64 * share).round() as usize).min(n - assigned)
        };
        assigned += count;
        let cdf = zipf_cdf(sizes[class]);
        // The offset moves with the step, not the seed.
        let u = ((step + 1) as f64 * 0.618_033_988_749_895 + class as f64 / 3.0).fract();
        for i in 0..count {
            let v = (i as f64 + u) / count as f64;
            let rank = cdf.partition_point(|&c| c < v).min(sizes[class] - 1);
            requests.push((class, perms[class][rank]));
        }
    }
    shuffle(&mut rng, &mut requests);
    let mut t = 0.0;
    let due: Vec<f64> = (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen_range(0.0..1.0)).ln();
            t
        })
        .collect();
    requests
        .into_iter()
        .zip(due)
        .map(|((class, key), d)| Arrival {
            due_s: d / t * seconds,
            class,
            key,
        })
        .collect()
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// How the daemon answered a request from its cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheUse {
    /// `X-Cache: hit`.
    Hit,
    /// `X-Cache: miss` (computed).
    Miss,
    /// `X-Cache: coalesced` (joined an identical in-flight computation).
    Coalesced,
    /// No disposition (shed or failed).
    None,
}

/// One request as the load generator saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Endpoint class.
    pub class: usize,
    /// Key within the class.
    pub key: usize,
    /// Due time to completion, milliseconds.
    pub latency_ms: f64,
    /// Send time to completion (the daemon's service time as the client
    /// sees it, without the wait for a free connection), milliseconds.
    pub service_ms: f64,
    /// Send time minus due time when a connection was idle at the due
    /// time (the generator's own lateness), milliseconds.
    pub late_ms: Option<f64>,
    /// Whether the generator was still behind schedule at send time.
    pub backlogged: bool,
    /// HTTP status (0 on a transport failure).
    pub status: u16,
    /// Cache disposition.
    pub cache: CacheUse,
    /// Trace id echoed by the daemon.
    pub trace: String,
    /// Whether the body passed the response checks.
    pub valid: bool,
    /// The body, kept for the byte-compare sample only.
    pub body: Option<String>,
}

/// One open-loop step: the samples of the requests sent, and whether
/// the step was abandoned because its backlog kept growing.
pub struct Step {
    /// Requests sent, in schedule order.
    pub samples: Vec<Sample>,
    /// Arrivals never sent because the generator fell [`ABANDON_MS`]
    /// behind schedule.
    pub abandoned: usize,
    /// Seconds from the step's start to its last completion.
    pub wall_s: f64,
}

impl Step {
    /// Requests completed per second over the step.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }
}

/// Sends `arrivals` on schedule over [`CONNECTIONS`] connections.
/// Every `keep_every`-th request (by schedule index) keeps its body for
/// the offline byte comparison.
#[must_use]
pub fn open_loop(
    addr: SocketAddr,
    jobs: &[Vec<Job>; 3],
    arrivals: &[Arrival],
    keep_every: usize,
) -> Step {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let abandoned = std::sync::atomic::AtomicBool::new(false);
    let samples: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(arrivals.len()));
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(a) = arrivals.get(i) else { break };
                let due = start + Duration::from_secs_f64(a.due_s);
                let now = Instant::now();
                if abandoned.load(Ordering::Relaxed)
                    || ms(now.saturating_duration_since(due)) > ABANDON_MS
                {
                    abandoned.store(true, Ordering::Relaxed);
                    break;
                }
                let on_time = now < due;
                if on_time {
                    wait_until(due);
                }
                let sent = Instant::now();
                let job = &jobs[a.class][a.key];
                let mut sample = send(addr, job);
                sample.class = a.class;
                sample.key = a.key;
                let done = Instant::now();
                sample.latency_ms = ms(done.saturating_duration_since(due));
                sample.service_ms = ms(done.saturating_duration_since(sent));
                sample.late_ms = on_time.then(|| ms(sent.saturating_duration_since(due)));
                sample.backlogged = !on_time;
                if !i.is_multiple_of(keep_every.max(1)) {
                    sample.body = None;
                }
                samples
                    .lock()
                    .expect("sample lock poisoned")
                    .push((i, sample));
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample lock poisoned");
    samples.sort_by_key(|(i, _)| *i);
    Step {
        abandoned: arrivals.len() - samples.len(),
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Sends every job once, back to back over [`CONNECTIONS`] connections,
/// and returns the wall time and the samples (in job order).
#[must_use]
pub fn closed_loop(addr: SocketAddr, jobs: &[&Job]) -> (f64, Vec<Sample>) {
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<(usize, Sample)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let sent = Instant::now();
                let mut sample = send(addr, job);
                sample.latency_ms = ms(sent.elapsed());
                sample.service_ms = sample.latency_ms;
                samples
                    .lock()
                    .expect("sample lock poisoned")
                    .push((i, sample));
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample lock poisoned");
    samples.sort_by_key(|(i, _)| *i);
    (wall, samples.into_iter().map(|(_, s)| s).collect())
}

/// Runs `f` while one thread per connection yields the CPU in a loop,
/// so no CPU halts while `f` runs, yet each gives way at once to a thread
/// with work. Back to back (a [`closed_loop`] over warm keys), every
/// connection spends most of its time blocked on a reply; left alone the
/// virtual CPUs halt between requests and every hand-off pays the host's
/// wake-up latency. On the reference VM the warm path then ran at half
/// speed for minutes at a time whenever the host was busy, while the open
/// loop, whose idle connections yield in [`wait_until`], did not slow.
pub fn awake<T>(f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        stop.store(true, Ordering::Relaxed);
        out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Waits for `due` without sleeping, yielding the CPU on every turn, so
/// a request leaves within microseconds of its due time. Sleeping lets
/// the virtual CPUs halt between arrivals, and on the reference VM waking
/// one costs a host-dependent 0.5–1 ms, which doubled the measured hit
/// latency from run to run; a plain spin instead took the CPUs the
/// daemon's workers need for cold requests.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One POST with its response checks: status 200, a body that validates
/// against the serve schema as this endpoint, a cache disposition, and
/// an accepted shared ISA for `/synthesize-multi`.
fn send(addr: SocketAddr, job: &Job) -> Sample {
    let mut sample = Sample {
        class: 0,
        key: 0,
        latency_ms: 0.0,
        service_ms: 0.0,
        late_ms: None,
        backlogged: false,
        status: 0,
        cache: CacheUse::None,
        trace: String::new(),
        valid: false,
        body: None,
    };
    let Ok(resp) = client::request_raw(addr, "POST", job.target, &job.body) else {
        return sample;
    };
    sample.status = resp.status;
    sample.cache = match resp.header("x-cache") {
        Some("hit") => CacheUse::Hit,
        Some("miss") => CacheUse::Miss,
        Some("coalesced") => CacheUse::Coalesced,
        _ => CacheUse::None,
    };
    sample.trace = resp.header("x-fits-trace").unwrap_or_default().to_string();
    let endpoint = job.target.trim_start_matches('/');
    sample.valid = resp.status == 200
        && sample.cache != CacheUse::None
        && validate_serve_json(&resp.body).is_ok_and(|kind| kind == endpoint)
        && (job.target != "/synthesize-multi" || resp.body.contains("\"accepted\": true"));
    sample.body = Some(resp.body);
    sample
}

/// Compares kept bodies byte for byte against `PostRequest::compute` on
/// a fresh artifact cache. Returns the number compared and mismatches.
#[must_use]
pub fn byte_compare(
    jobs: &[Vec<Job>; 3],
    samples: &[Sample],
    limit: usize,
) -> (usize, Vec<String>) {
    let mut compared = 0;
    let mut bad = Vec::new();
    for s in samples
        .iter()
        .filter(|s| s.valid && s.body.is_some())
        .take(limit)
    {
        let job = &jobs[s.class][s.key];
        compared += 1;
        let expected = PostRequest::from_target(job.target, &job.body)
            .ok()
            .flatten()
            .and_then(|req| {
                let arts = fits_bench::Artifacts::new().with_synth(req.synth().clone());
                req.compute(&arts).ok()
            });
        if expected.as_deref() != s.body.as_deref() {
            bad.push(format!(
                "{} {}: body differs from PostRequest::compute",
                job.target, job.body
            ));
        }
    }
    (compared, bad)
}

/// A started daemon after set-up, with what warm-up measured.
pub struct Started {
    /// The running daemon.
    pub handle: ServerHandle,
    /// Spawn + `/healthz` + warm-up seconds.
    pub setup_s: f64,
    /// Fig. 11 FITS8-vs-ARM16 I-cache saving from the warm-up bodies (%).
    pub icache_saving_pct: f64,
    /// Fig. 5 FITS/ARM code size from the warm-up bodies.
    pub code_ratio: f64,
    /// Shared-ISA I-cache energy over per-app energy, minus one (%).
    pub shared_penalty_pct: f64,
    /// Warm-up responses that failed their checks.
    pub failed: usize,
    /// Warm-up requests sent.
    pub attempted: usize,
}

/// Spawns a daemon (default configuration, plus an access log when
/// given), waits for `/healthz`, and warms its cache.
///
/// # Errors
///
/// Bind failures or an unhealthy daemon.
pub fn start(access_log: Option<&Path>) -> Result<Started, String> {
    let t = Instant::now();
    let handle = spawn(&ServerConfig {
        access_log: access_log.map(Path::to_path_buf),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("spawn fitsd: {e}"))?;
    match client::get(handle.addr, "/healthz") {
        Ok((200, body)) if validate_serve_json(&body).is_ok_and(|k| k == "healthz") => {}
        other => {
            handle.stop();
            return Err(format!("fitsd unhealthy: {other:?}"));
        }
    }
    let jobs = warmup();
    let refs: Vec<&Job> = jobs.iter().collect();
    let (_, samples) = closed_loop(handle.addr, &refs);
    let setup_s = t.elapsed().as_secs_f64();

    let failed = samples.iter().filter(|s| !s.valid).count();
    let num = |body: &Option<String>, path: &[&str]| -> Option<f64> {
        let doc = json::parse(body.as_deref()?).ok()?;
        let mut v = &doc;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    let (mut savings, mut ratios) = (Vec::new(), Vec::new());
    let (mut shared_j, mut solo_j) = (0.0, 0.0);
    for chunk in samples.chunks(3).take(Kernel::ALL.len()) {
        if let (Some(arm16), Some(fits8), Some(ratio)) = (
            num(&chunk[0].body, &["arm", "icache_j"]),
            num(&chunk[1].body, &["fits", "icache_j"]),
            num(&chunk[2].body, &["code_ratio"]),
        ) {
            savings.push((1.0 - fits8 / arm16) * 100.0);
            ratios.push(ratio);
        }
    }
    for s in &samples[3 * Kernel::ALL.len()..] {
        let Some(Value::Arr(members)) = s
            .body
            .as_deref()
            .and_then(|b| json::parse(b).ok())
            .and_then(|d| d.get("members").cloned())
        else {
            continue;
        };
        for m in &members {
            shared_j += m
                .get("shared")
                .and_then(|v| v.get("icache_j"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            solo_j += m
                .get("solo")
                .and_then(|v| v.get("icache_j"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok(Started {
        handle,
        setup_s,
        icache_saving_pct: mean(&savings),
        code_ratio: mean(&ratios),
        shared_penalty_pct: if solo_j > 0.0 {
            (shared_j / solo_j - 1.0) * 100.0
        } else {
            0.0
        },
        failed: failed + (Kernel::ALL.len() - savings.len()) * 3,
        attempted: samples.len(),
    })
}

/// A ladder step's verdict: every arrival was sent (no runaway backlog),
/// the last tenth of the step was not behind schedule by more than the
/// limit (no growing backlog), the high-percentile latency met
/// [`LIMIT_MS`], and nothing was shed or failed.
#[must_use]
pub fn step_met(step: &Step) -> bool {
    let samples = &step.samples;
    let Some(lat) = Summary::of(&samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>()) else {
        return false;
    };
    let tail = &samples[samples.len() - samples.len() / 10..];
    step.abandoned == 0
        && lat.high_or_max() <= LIMIT_MS
        && !tail.iter().any(|s| s.backlogged && s.latency_ms > LIMIT_MS)
        && samples.iter().all(|s| s.valid)
}

/// Per-phase samples of one access log, keyed by trace id.
pub type PhaseLog = HashMap<String, Vec<(String, f64, u64)>>;

/// Reads a `fitsd` JSONL access log: for every request line, its phase
/// paths with total milliseconds and counts.
///
/// # Errors
///
/// Unreadable or malformed log lines.
pub fn read_access_log(path: &Path) -> Result<PhaseLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = PhaseLog::new();
    for line in text.lines() {
        let doc = json::parse(line).map_err(|e| format!("access log: {e}"))?;
        if doc.get("type").and_then(Value::as_str) != Some("request") {
            continue;
        }
        let trace = doc
            .get("trace")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let Some(Value::Arr(phases)) = doc.get("phases") else {
            continue;
        };
        let entries = phases
            .iter()
            .filter_map(|p| {
                let name = p.get("name")?.as_str()?.to_string();
                let us = p.get("us")?.as_f64()?;
                let count = p.get("count").and_then(Value::as_f64).unwrap_or(1.0) as u64;
                Some((name, us / 1e3, count))
            })
            .collect();
        out.insert(trace, entries);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_space_exceeds_the_result_cache() {
        let [a, b, c] = catalogue();
        assert_eq!(a.len() + b.len() + c.len(), 504);
        for job in a.iter().chain(&b).chain(&c).chain(&warmup()) {
            assert!(
                PostRequest::from_target(job.target, &job.body).is_ok_and(|r| r.is_some()),
                "{} {} must parse",
                job.target,
                job.body
            );
        }
    }

    #[test]
    fn arrivals_are_seeded_and_skewed() {
        let sizes = [168, 126, 210];
        let a = arrivals(5, 0, 100.0, 20.0, sizes);
        let same = arrivals(5, 0, 100.0, 20.0, sizes);
        assert!(a
            .iter()
            .zip(&same)
            .all(|(x, y)| x.due_s == y.due_s && x.key == y.key));
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|x| (0.0..=20.0).contains(&x.due_s)));
        let count = |arr: &[Arrival]| {
            let mut hits: HashMap<(usize, usize), usize> = HashMap::new();
            for x in arr {
                *hits.entry((x.class, x.key)).or_insert(0) += 1;
            }
            hits
        };
        let mut hits = count(&a);
        // Another seed reorders and retimes the same requests.
        let other = count(&arrivals(6, 0, 100.0, 20.0, sizes));
        let keys = |arr: &[Arrival]| arr.iter().map(|x| x.key).collect::<Vec<_>>();
        assert_ne!(keys(&a), keys(&arrivals(6, 0, 100.0, 20.0, sizes)));
        assert_eq!(hits, other);
        let top = hits.values().max().copied().unwrap_or(0);
        assert!(
            top > 100,
            "the most popular key should repeat often, saw {top}"
        );
        // Over a run's worth of arrivals the population touches more keys
        // than the result cache holds, so it evicts.
        for step in 1..5 {
            for x in arrivals(5, step, 400.0, 5.0, sizes) {
                *hits.entry((x.class, x.key)).or_insert(0) += 1;
            }
        }
        assert!(hits.len() > 256, "keys seen {}", hits.len());
    }
}
