//! Loopback integration: a real `fitsd` instance under a 32-client
//! thundering herd.
//!
//! Every client must succeed, every response must be byte-identical to a
//! direct library call with a fresh artifact cache (the purity contract
//! the cache and coalescer rest on), and the herd must actually exercise
//! both sharing layers (coalesced joins and cache hits observed).
//!
//! The same run audits the telemetry plane: the service counters must
//! reconcile exactly (`requests == ok + 4xx + 5xx`, and every POST is
//! exactly one of execute/coalesce/hit), and every `X-Fits-Trace` the
//! clients saw must appear exactly once in the JSONL access log.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use std::sync::Arc;

use fits_bench::ArtifactsPool;
use fits_kernels::kernels::Kernel;
use fits_serve::client;
use fits_serve::server::{spawn, ServerConfig};
use fits_serve::{validate_serve_json, PostRequest};

const CLIENTS: usize = 32;

fn jobs() -> Vec<(&'static str, String)> {
    let k0 = Kernel::ALL[0].name();
    let k1 = Kernel::ALL[1].name();
    // A user-supplied machine description (the shipped AR32 text with a
    // respelled comment): same semantics, distinct content hash, so it
    // must get its own cache slot while producing identical numbers.
    let respelled = fits_isa::spec::AR32_SPEC_TEXT.replace(
        "# --- branches and traps ---",
        "# --- branches and traps (respelled) ---",
    );
    vec![
        ("/synthesize", format!("{{\"kernel\": \"{k0}\"}}")),
        ("/synthesize", format!("{{\"kernel\": \"{k1}\"}}")),
        ("/simulate", format!("{{\"kernel\": \"{k0}\"}}")),
        (
            "/simulate",
            format!("{{\"kernel\": \"{k1}\", \"scenario\": \"small-embedded\"}}"),
        ),
        (
            "/analyze",
            format!("{{\"kernel\": \"{k0}\", \"static_only\": true}}"),
        ),
        (
            "/synthesize",
            format!(
                "{{\"kernel\": \"{k0}\", \"isa\": \"{}\"}}",
                fits_obs::json::escape(&respelled)
            ),
        ),
        // A shared-ISA synthesis over both kernels: the multi pipeline
        // must coalesce and cache exactly like the single-kernel ones.
        (
            "/synthesize-multi",
            format!("{{\"kernels\": [\"{k0}\", \"{k1}\"]}}"),
        ),
    ]
}

/// What a direct (serverless) evaluation of each job returns.
fn direct_bodies(jobs: &[(&'static str, String)]) -> Vec<String> {
    let pool = ArtifactsPool::new();
    jobs.iter()
        .map(|(target, body)| {
            let request = PostRequest::from_target(target, body)
                .expect("job parses")
                .expect("job target is known");
            let artifacts = pool.for_config(request.synth(), request.isa());
            request.compute(&artifacts).expect("direct compute")
        })
        .collect()
}

#[test]
fn thundering_herd_is_coalesced_cached_and_bit_identical() {
    let log_path =
        std::env::temp_dir().join(format!("fits-loopback-access-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let handle = spawn(&ServerConfig {
        workers: 8,
        queue_capacity: 256,
        cache_capacity: 64,
        access_log: Some(log_path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr;
    let jobs = Arc::new(jobs());

    // 32 clients, each walking all jobs from a rotated start so identical
    // requests overlap in flight. Each response's trace id rides along.
    let results: Vec<Vec<(usize, u16, String, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let jobs = Arc::clone(&jobs);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..jobs.len() {
                        let idx = (c + i) % jobs.len();
                        let (target, body) = &jobs[idx];
                        let response = client::request_raw(addr, "POST", target, body)
                            .expect("request succeeds");
                        let trace = response
                            .header("x-fits-trace")
                            .expect("every response carries a trace id")
                            .to_string();
                        out.push((idx, response.status, response.body, trace));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Zero errors, schema-valid, and byte-identical to the direct library
    // evaluation of the same request.
    let direct = direct_bodies(&jobs);
    let mut checked = 0usize;
    let mut traces: Vec<&str> = Vec::new();
    for per_client in &results {
        for (idx, status, text, trace) in per_client {
            assert_eq!(*status, 200, "job {idx} failed: {text}");
            let endpoint = validate_serve_json(text).expect("response schema");
            assert_eq!(format!("/{endpoint}"), jobs[*idx].0);
            assert_eq!(
                text, &direct[*idx],
                "served body for job {idx} differs from the direct library call"
            );
            traces.push(trace);
            checked += 1;
        }
    }
    assert_eq!(checked, CLIENTS * jobs.len());

    // Both sharing layers were exercised: at most one execution per
    // distinct job, the rest split between coalescing and the cache.
    let metrics = &handle.state().metrics;
    let executions = metrics.executions.get();
    let hits = metrics.cache_hits.get();
    let joins = metrics.coalesced_joins.get();
    assert_eq!(
        executions,
        jobs.len() as u64,
        "one execution per distinct job"
    );
    assert!(hits > 0, "expected cache hits, got {hits}");
    assert!(joins > 0, "expected coalesced joins, got {joins}");
    assert_eq!(
        executions + hits + joins,
        (CLIENTS * jobs.len()) as u64,
        "every request is exactly one of execute/coalesce/hit"
    );

    // The counters reconcile exactly: every routed request is exactly one
    // of 2xx/4xx/5xx, and every POST exactly one of execute/coalesce/hit.
    assert_eq!(
        metrics.requests.get(),
        metrics.ok.get() + metrics.client_errors.get() + metrics.server_errors.get(),
        "requests must equal ok + 4xx + 5xx"
    );
    assert_eq!(metrics.client_errors.get(), 0);
    assert_eq!(metrics.server_errors.get(), 0);

    // The wire metrics agree with the in-process counters.
    let (status, body) = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert_eq!(validate_serve_json(&body).unwrap(), "metrics");
    assert!(body.contains(&format!("\"executions\": {executions}")));

    // Stopping flushes the access log; every trace id the clients saw must
    // appear in it exactly once, and the log must schema-validate.
    let handle_commit = handle.state().commit.clone();
    handle.stop();
    let log_text = std::fs::read_to_string(&log_path).expect("access log exists");
    let stats = fits_obs::validate_access_jsonl(&log_text).expect("access log schema");
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for trace in &stats.traces {
        *seen.entry(trace.as_str()).or_default() += 1;
    }
    for trace in &traces {
        assert_eq!(
            seen.get(trace).copied(),
            Some(1),
            "trace {trace} must appear exactly once in the access log"
        );
    }
    // The POSTs plus the one /metrics GET above are the only requests.
    assert_eq!(stats.requests, (CLIENTS * jobs.len() + 1) as u64);
    assert_eq!(stats.commit, handle_commit);
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn validation_failures_are_structured_400s_end_to_end() {
    let handle = spawn(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr;
    for (target, body, pointer) in [
        ("/synthesize", "{}", "/kernel"),
        (
            "/synthesize",
            "{\"kernel\": \"crc32\", \"scale\": -3}",
            "/scale",
        ),
        (
            "/simulate",
            "{\"kernel\": \"crc32\", \"scenario\": \"huge\"}",
            "/scenario",
        ),
        (
            "/sweep",
            "{\"kernels\": [\"crc32\"], \"tech\": [\"1nm\"]}",
            "/tech/0",
        ),
        (
            "/synthesize",
            "{\"kernel\": \"crc32\", \"synth\": {\"space_budget\": 7}}",
            "/synth/space_budget",
        ),
        (
            "/analyze",
            "{\"kernel\": \"crc32\", \"static_only\": \"yes\"}",
            "/static_only",
        ),
        (
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0, 0]}",
            "/weights",
        ),
        (
            "/synthesize-multi",
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1, -2]}",
            "/weights",
        ),
    ] {
        let (status, text) = client::post(addr, target, body).expect("request");
        assert_eq!(status, 400, "{target} {body}: {text}");
        assert_eq!(validate_serve_json(&text).unwrap(), "error");
        assert!(
            text.contains(&format!("\"pointer\": \"{pointer}\"")),
            "{target} {body}: wrong pointer in {text}"
        );
    }
    // Validation failures never reach the pipeline.
    assert_eq!(handle.state().metrics.executions.get(), 0);
    handle.stop();
}

#[test]
fn proportional_multi_weights_share_one_cache_slot() {
    let handle = spawn(&ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr;
    // Four spellings of the same merged profile: reordered members,
    // scaled integer weights, fractional weights, and a padded request
    // whose extra member carries weight zero. One execution serves all.
    let spellings = [
        "{\"kernels\": [\"bitcount\", \"crc32\"]}".to_string(),
        "{\"kernels\": [\"crc32\", \"bitcount\"], \"weights\": [3, 3]}".to_string(),
        "{\"kernels\": [\"bitcount\", \"crc32\"], \"weights\": [0.5, 0.5]}".to_string(),
        "{\"kernels\": [\"bitcount\", \"sha\", \"crc32\"], \"weights\": [2, 0, 2]}".to_string(),
    ];
    let mut bodies = Vec::new();
    for body in &spellings {
        let (status, text) = client::post(addr, "/synthesize-multi", body).expect("request");
        assert_eq!(status, 200, "{body}: {text}");
        assert_eq!(validate_serve_json(&text).unwrap(), "synthesize-multi");
        bodies.push(text);
    }
    for text in &bodies[1..] {
        assert_eq!(
            text, &bodies[0],
            "proportional weight spellings must serve identical bytes"
        );
    }
    let metrics = &handle.state().metrics;
    assert_eq!(
        metrics.executions.get(),
        1,
        "all spellings canonicalize onto one execution"
    );
    assert_eq!(
        metrics.cache_hits.get(),
        (spellings.len() - 1) as u64,
        "every respelling after the first is a cache hit"
    );
    handle.stop();
}

#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_survives() {
    let handle = spawn(&ServerConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr;
    // ~100 KB of nested `[`: without a nesting bound the recursive parser
    // overflows the worker's stack and aborts the process.
    let body = "[".repeat(100_000);
    let (status, text) = client::post(addr, "/synthesize", &body).expect("request");
    assert_eq!(status, 400, "{text}");
    assert_eq!(validate_serve_json(&text).unwrap(), "error");
    assert!(text.contains("\"code\": \"parse\""), "{text}");
    let (status, text) = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(status, 200, "{text}");
    assert_eq!(validate_serve_json(&text).unwrap(), "healthz");
    handle.stop();
}
