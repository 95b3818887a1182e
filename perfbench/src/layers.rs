//! The benchmark's one stage-name map: each layer name (crate.module)
//! against the `FlowStage::name()` that reports it through a
//! `FlowObserver` and the `fitsd` access-log phase path that records it.
//!
//! The request's own `execute` phase and the flow's `execute` stage
//! collide by name; here they are `serve.execute` (the whole computation
//! behind a cache miss) and `core.execute` (the FITS differential run,
//! logged as `execute/execute`).

use fits_core::FlowStage;

/// One named layer.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Benchmark layer name, `crate.module`.
    pub name: &'static str,
    /// The flow stage that reports this layer, if any.
    pub stage: Option<FlowStage>,
    /// The access-log phase path that records this layer, if any.
    pub phase: Option<&'static str>,
}

const fn layer(name: &'static str, stage: Option<FlowStage>, phase: Option<&'static str>) -> Layer {
    Layer { name, stage, phase }
}

/// Every layer a span can be named after, in pipeline order.
pub const LAYERS: &[Layer] = &[
    layer("kernels.compile", None, None),
    layer(
        "core.profile",
        Some(FlowStage::Profile),
        Some("execute/profile"),
    ),
    layer("core.flow", None, None),
    layer(
        "core.synth",
        Some(FlowStage::Synthesize),
        Some("execute/synthesize"),
    ),
    layer(
        "core.translate",
        Some(FlowStage::Translate),
        Some("execute/translate"),
    ),
    layer(
        "verify.validate",
        Some(FlowStage::Verify),
        Some("execute/verify"),
    ),
    layer(
        "core.execute",
        Some(FlowStage::Execute),
        Some("execute/execute"),
    ),
    layer("isa.thumb", None, None),
    layer("sim.block_compile", None, None),
    layer("sim.record", None, None),
    layer("sim.price", None, None),
    layer("power.price", None, None),
    layer("core.merge", None, None),
    layer("core.multi", None, None),
    layer("verify.analyze", None, None),
    layer("bench.pareto_price", None, None),
    layer("serve.queue_wait", None, Some("queue-wait")),
    layer("serve.parse", None, Some("parse")),
    layer("serve.cache_lookup", None, Some("cache-lookup")),
    layer("serve.coalesce_wait", None, Some("coalesce-wait")),
    layer("serve.execute", None, Some("execute")),
    layer("serve.serialize", None, Some("serialize")),
    layer("serve.write", None, Some("write")),
];

/// The layer a flow stage reports as.
#[must_use]
pub fn for_stage(stage: FlowStage) -> &'static str {
    LAYERS
        .iter()
        .find(|l| l.stage == Some(stage))
        .map(|l| l.name)
        .expect("every FlowStage has a layer")
}

/// The layer an access-log phase path records, or `None` for a phase the
/// map does not name.
#[must_use]
pub fn for_phase(path: &str) -> Option<&'static str> {
    LAYERS
        .iter()
        .find(|l| l.phase == Some(path))
        .map(|l| l.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAGES: [FlowStage; 5] = [
        FlowStage::Profile,
        FlowStage::Synthesize,
        FlowStage::Translate,
        FlowStage::Verify,
        FlowStage::Execute,
    ];

    #[test]
    fn names_are_unique_and_stages_map_to_their_engine_phase() {
        for (i, a) in LAYERS.iter().enumerate() {
            assert!(
                LAYERS[i + 1..].iter().all(|b| b.name != a.name),
                "{} listed twice",
                a.name
            );
        }
        for stage in STAGES {
            let layer = LAYERS.iter().find(|l| l.stage == Some(stage)).unwrap();
            // Engine stages nest under the request's execute span.
            assert_eq!(
                layer.phase,
                Some(format!("execute/{}", stage.name()).as_str())
            );
        }
    }

    #[test]
    fn the_execute_collision_is_resolved() {
        assert_eq!(for_phase("execute"), Some("serve.execute"));
        assert_eq!(for_phase("execute/execute"), Some("core.execute"));
        assert_eq!(for_stage(FlowStage::Execute), "core.execute");
        assert_eq!(for_phase("no-such-phase"), None);
    }

    /// Drives every `fitsd` endpoint once with the access log on, and
    /// fails if any logged phase path is missing from the map.
    #[test]
    fn every_server_phase_is_named() {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out/layer-map-test"));
        std::fs::create_dir_all(dir).unwrap();
        let log = dir.join("access.jsonl");
        let handle = fits_serve::spawn(&fits_serve::ServerConfig {
            access_log: Some(log.clone()),
            ..fits_serve::ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr;
        let posts = [
            ("/synthesize", r#"{"kernel": "crc32"}"#),
            ("/simulate", r#"{"kernel": "crc32", "icache_bytes": 8192}"#),
            ("/analyze", r#"{"kernel": "crc32", "static_only": true}"#),
            (
                "/sweep",
                r#"{"kernels": ["crc32"], "icache_bytes": [8192]}"#,
            ),
            ("/synthesize-multi", r#"{"kernels": ["crc32", "bitcount"]}"#),
            // Repeat: a cache hit takes the lookup path only.
            ("/synthesize", r#"{"kernel": "crc32"}"#),
            // A malformed body stops at parse.
            ("/synthesize", r#"{"kernel": 7}"#),
        ];
        for (i, (target, body)) in posts.into_iter().enumerate() {
            let (status, _) = fits_serve::client::post(addr, target, body).unwrap();
            assert_eq!(status, if i == 6 { 400 } else { 200 }, "{target} {body}");
        }
        for target in ["/healthz", "/metrics", "/debug/flight"] {
            fits_serve::client::get(addr, target).unwrap();
        }
        handle.stop();

        let text = std::fs::read_to_string(&log).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
        let mut seen = 0;
        for line in text.lines() {
            let doc = fits_obs::json::parse(line).unwrap();
            if doc.get("type").and_then(fits_obs::json::Value::as_str) != Some("request") {
                continue;
            }
            let Some(fits_obs::json::Value::Arr(phases)) = doc.get("phases") else {
                panic!("request line without phases: {line}");
            };
            for phase in phases {
                let path = phase
                    .get("name")
                    .and_then(fits_obs::json::Value::as_str)
                    .unwrap();
                assert!(
                    for_phase(path).is_some(),
                    "fitsd logged phase {path:?}, which the layer map does not name"
                );
                seen += 1;
            }
        }
        assert!(
            seen > 20,
            "expected phase entries in the access log, saw {seen}"
        );
    }
}
