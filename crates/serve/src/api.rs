//! The JSON API: request schemas, canonical keys, response bodies.
//!
//! Every request body is checked against a `fits_obs::schema` shape
//! *before* any work is scheduled; violations come back as structured
//! 400s carrying an error code and a JSON-pointer to the offending field
//! — a malformed request can never panic a worker.
//!
//! Every POST endpoint is a **pure function** of its canonical request
//! string ([`SynthesizeRequest::canonical`] and friends): no timestamps,
//! no host stamps, fixed key order. That purity is what makes the
//! content-addressed cache and the coalescer sound — equal canonical
//! strings may share one execution and one response body, byte for byte.

use std::sync::Arc;

use fits_bench::{
    cache_bounds_report_with, isa_json, price_shared_member, run_kernel_scenarios, synth_key,
    Artifacts, ExperimentError,
};
use fits_core::{synthesize_multi, MultiError, MultiMember, MultiOptions, SynthOptions};
use fits_isa::spec::{builtin_ar32, IsaSpec, SpecCatalog};
use fits_kernels::kernels::{Kernel, Scale};
use fits_obs::json::{escape, parse, Value, ISA_TOTALS};
use fits_obs::schema::{self, check, Field, Object, Shape, Violation};
use fits_scenario::{tech_preset, ScenarioMatrix, ScenarioSpec, PRESET_NAMES, TECH_NAMES};

/// The response schema identifier every body carries.
pub const SCHEMA: &str = "powerfits-serve-v1";
/// Largest accepted workload scale (`Scale::experiment()` is 4096).
pub const MAX_SCALE: u32 = 4096;
/// Most I-cache sizes one sweep request may ask for.
pub const MAX_SWEEP_SIZES: usize = 8;

/// A structured request rejection: machine-readable code, JSON pointer to
/// the offending field, human-readable message. Renders as the 400 body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// Stable error code (`"parse"`, `"missing_field"`, `"bad_type"`,
    /// `"bad_value"`, `"unknown_field"`).
    pub code: &'static str,
    /// JSON pointer to the offending field (`"/synth/reg_bits"`; empty
    /// for document-level failures).
    pub pointer: String,
    /// What went wrong.
    pub message: String,
}

impl ApiError {
    fn new(code: &'static str, pointer: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            code,
            pointer: pointer.to_string(),
            message: message.into(),
        }
    }

    /// The 400 response body for this rejection.
    #[must_use]
    pub fn body(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"error\",\n  \"error\": {{\
             \"code\": \"{}\", \"pointer\": \"{}\", \"message\": \"{}\"}}\n}}\n",
            escape(self.code),
            escape(&self.pointer),
            escape(&self.message),
        )
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {:?}: {}", self.code, self.pointer, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<Violation> for ApiError {
    fn from(v: Violation) -> ApiError {
        ApiError {
            code: v.code,
            pointer: v.pointer,
            message: v.message,
        }
    }
}

// ---------------------------------------------------------------- request shapes

const STR: Shape = Shape::STR;
const KERNEL: Field = Field::req("kernel", STR).missing("a kernel name is required");
const SCALE: Field = Field::opt("scale", Shape::int(1.0, MAX_SCALE as f64));
const SCENARIO: Field = Field::opt("scenario", STR);
const TECH: Field = Field::opt("tech", STR);
const ICACHE: Shape = Shape::int(256.0, 16_777_216.0);
const ICACHE_BYTES: Field = Field::opt("icache_bytes", ICACHE);
const ISA: Field = Field::opt("isa", STR);
const SYNTH: Field = Field::opt(
    "synth",
    Shape::closed(&[
        Field::opt("toggle_aware", Shape::BOOL),
        Field::opt("reg_bits", Shape::int(3.0, 4.0)),
        Field::opt(
            "space_budget",
            Shape::range(0f64.next_up(), 1.0).expecting("a fraction in (0, 1]"),
        ),
        Field::opt("max_dict_bits", Shape::int(0.0, 12.0)),
    ]),
);
const KERNEL_LIST: Shape = Shape::arr(&STR).len(1, usize::MAX, "kernel list must not be empty");

const SYNTHESIZE: Shape = Shape::closed(&[KERNEL, SCALE, SYNTH, ISA]);
const SIMULATE: Shape = Shape::closed(&[KERNEL, SCALE, SCENARIO, TECH, ICACHE_BYTES, SYNTH, ISA]);
const ANALYZE: Shape = Shape::closed(&[
    KERNEL,
    SCALE,
    SCENARIO,
    TECH,
    ICACHE_BYTES,
    SYNTH,
    Field::opt("static_only", Shape::BOOL),
    ISA,
]);
const SWEEP: Shape = Shape::closed(&[
    Field::opt("kernels", KERNEL_LIST),
    SCALE,
    SCENARIO,
    Field::opt(
        "icache_bytes",
        Shape::arr(&ICACHE.expecting("an integer byte count in [256, 2^24]")).len(
            1,
            MAX_SWEEP_SIZES,
            "expected 1..=8 sizes",
        ),
    ),
    Field::opt(
        "tech",
        Shape::arr(&STR).len(1, usize::MAX, "tech list must not be empty"),
    ),
    SYNTH,
    ISA,
]);
const SYNTHESIZE_MULTI: Shape = Shape::closed(&[
    Field::req("kernels", KERNEL_LIST).missing("a kernel list is required"),
    Field::opt("weights", Shape::arr(&Shape::NUM)),
    SCALE,
    Field::opt("epsilon", Shape::range(-1.0, 100.0)),
    SYNTH,
    ISA,
]);

// ---------------------------------------------------------------- fields

fn parse_body(body: &str) -> Result<Value, ApiError> {
    if body.trim().is_empty() {
        // An absent body means "all defaults" — canonicalized as {}.
        return Ok(Value::Obj(Vec::new()));
    }
    parse(body).map_err(|e| ApiError::new("parse", "", e.to_string()))
}

/// Decodes array field `key` item by item: each item's shape is checked,
/// then `decode` sees it with its pointer and the items decoded before
/// it. `None` when the field is absent.
fn list<T>(
    obj: &Object<'_>,
    key: &str,
    mut decode: impl FnMut(&Value, &str, &[T]) -> Result<T, ApiError>,
) -> Result<Option<Vec<T>>, ApiError> {
    let mut out = Vec::new();
    let present = obj.each(key, |item, pointer| {
        let decoded = decode(item, pointer, &out)?;
        out.push(decoded);
        Ok::<_, ApiError>(())
    })?;
    Ok(present.then_some(out))
}

fn kernel_named(name: &str, pointer: &str) -> Result<Kernel, ApiError> {
    Kernel::from_name(name)
        .ok_or_else(|| ApiError::new("bad_value", pointer, format!("unknown kernel {name:?}")))
}

fn kernel_field(obj: &Object<'_>) -> Result<Kernel, ApiError> {
    kernel_named(
        obj.get("kernel")?
            .and_then(Value::as_str)
            .unwrap_or_default(),
        "/kernel",
    )
}

/// The `kernels` list: known names, no duplicates.
fn kernel_list(obj: &Object<'_>) -> Result<Option<Vec<Kernel>>, ApiError> {
    list(obj, "kernels", |item, pointer, seen| {
        let name = item.as_str().unwrap_or_default();
        let kernel = kernel_named(name, pointer)?;
        if seen.contains(&kernel) {
            return Err(ApiError::new(
                "bad_value",
                pointer,
                format!("duplicate kernel {name:?}"),
            ));
        }
        Ok(kernel)
    })
}

/// A list of numbers.
fn number_list(obj: &Object<'_>, key: &str) -> Result<Option<Vec<f64>>, ApiError> {
    list(obj, key, |item, _, _| Ok(item.as_f64().unwrap_or_default()))
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn scale_field(obj: &Object<'_>) -> Result<Scale, ApiError> {
    let n = obj
        .get("scale")?
        .and_then(Value::as_f64)
        .map_or(Scale::test().n, |n| n as u32);
    Ok(Scale { n })
}

/// Overlays the optional `"synth"` object on a scenario's default options.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn synth_field(obj: &Object<'_>, base: SynthOptions) -> Result<SynthOptions, ApiError> {
    let Some(synth) = obj.get("synth")? else {
        return Ok(base);
    };
    let num = |key| synth.get(key).and_then(Value::as_f64);
    let mut options = base;
    if let Some(Value::Bool(b)) = synth.get("toggle_aware") {
        options.toggle_aware = *b;
    }
    if let Some(bits) = num("reg_bits") {
        options.reg_bits = bits as u8;
    }
    if let Some(budget) = num("space_budget") {
        options.space_budget = budget;
    }
    if let Some(bits) = num("max_dict_bits") {
        options.max_dict_bits = bits as u8;
    }
    Ok(options)
}

/// Parses the optional `"isa"` field: `"builtin"` (or absence, or text
/// hash-identical to the shipped spec) selects the built-in catalog; any
/// other value must be a complete `powerfits-isa-v1` document describing a
/// 32-bit replacement for the AR32 execution ISA. The document is linted
/// with the `ISA` verification family before any work is scheduled, so a
/// spec with ambiguous or non-round-tripping forms is rejected as a 400,
/// never handed to the pipeline.
fn isa_field(obj: &Object<'_>) -> Result<Option<Arc<SpecCatalog>>, ApiError> {
    let Some(text) = obj.get("isa")?.and_then(Value::as_str) else {
        return Ok(None);
    };
    if text == "builtin" {
        return Ok(None);
    }
    let spec = IsaSpec::load(text)
        .map_err(|e| ApiError::new("bad_value", "/isa", format!("ISA spec rejected: {e}")))?;
    if spec.word_width != 32 {
        return Err(ApiError::new(
            "bad_value",
            "/isa",
            format!(
                "only a 32-bit (AR32-shaped) spec can replace the execution ISA, \
                 got word-width {}",
                spec.word_width
            ),
        ));
    }
    let report = fits_verify::lint_spec(&spec);
    if let Some(d) = report.diagnostics.first() {
        return Err(ApiError::new(
            "bad_value",
            "/isa",
            format!("ISA spec fails validation ({}): {}", d.code, d.message),
        ));
    }
    if spec.hash() == builtin_ar32().hash() {
        // Respellings of the shipped spec share the builtin cache slots.
        return Ok(None);
    }
    Ok(Some(Arc::new(SpecCatalog {
        ar32: Arc::new(spec),
        ..SpecCatalog::default()
    })))
}

/// The canonical-key suffix for a request's ISA catalog: empty for the
/// built-in catalog (keeping pre-existing keys stable), the catalog's
/// content hash otherwise.
fn isa_suffix(isa: Option<&Arc<SpecCatalog>>) -> String {
    isa.map_or_else(String::new, |c| format!("|isa={}", c.hash_hex()))
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn scenario_fields(obj: &Object<'_>) -> Result<(String, ScenarioSpec), ApiError> {
    let preset = obj
        .get("scenario")?
        .and_then(Value::as_str)
        .unwrap_or("sa1100")
        .to_string();
    let tech = obj.get("tech")?.and_then(Value::as_str);
    let icache = obj
        .get("icache_bytes")?
        .and_then(Value::as_f64)
        .map(|n| n as u32);
    let spec = ScenarioSpec::resolve(&preset, tech, icache).map_err(|e| {
        let field = match &e {
            fits_scenario::ScenarioError::UnknownPreset { .. } => "scenario",
            fits_scenario::ScenarioError::UnknownTech { .. } => "tech",
            _ => "icache_bytes",
        };
        ApiError::new("bad_value", &format!("/{field}"), e.to_string())
    })?;
    let canonical = format!(
        "preset={preset}|tech={}|icache={}",
        tech.unwrap_or("-"),
        icache.map_or_else(|| "-".to_string(), |b| b.to_string()),
    );
    Ok((canonical, spec))
}

// ---------------------------------------------------------------- requests

/// A validated `POST /synthesize` request.
#[derive(Clone, Debug)]
pub struct SynthesizeRequest {
    /// The kernel to synthesize for.
    pub kernel: Kernel,
    /// Workload scale.
    pub scale: Scale,
    /// Synthesis options (defaults overlaid with the `"synth"` object).
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
}

impl SynthesizeRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<SynthesizeRequest, ApiError> {
        let doc = parse_body(body)?;
        let obj = schema::object(&doc, "", &SYNTHESIZE)?;
        Ok(SynthesizeRequest {
            kernel: kernel_field(&obj)?,
            scale: scale_field(&obj)?,
            synth: synth_field(&obj, SynthOptions::default())?,
            isa: isa_field(&obj)?,
        })
    }

    /// The canonical request string (the cache/coalescing key).
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "synthesize|kernel={}|n={}|synth={}{}",
            self.kernel.name(),
            self.scale.n,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

/// A validated `POST /simulate` request.
#[derive(Clone, Debug)]
pub struct SimulateRequest {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Workload scale.
    pub scale: Scale,
    /// The resolved machine point.
    pub scenario: ScenarioSpec,
    /// Synthesis options for the FITS side.
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
    scenario_canonical: String,
}

impl SimulateRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<SimulateRequest, ApiError> {
        let doc = parse_body(body)?;
        let obj = schema::object(&doc, "", &SIMULATE)?;
        let kernel = kernel_field(&obj)?;
        let scale = scale_field(&obj)?;
        let (scenario_canonical, scenario) = scenario_fields(&obj)?;
        let synth = synth_field(&obj, scenario.synth.clone())?;
        Ok(SimulateRequest {
            kernel,
            scale,
            scenario,
            synth,
            isa: isa_field(&obj)?,
            scenario_canonical,
        })
    }

    /// The canonical request string (the cache/coalescing key). Built from
    /// the *request* fields, not the derived scenario id — two presets can
    /// resize to the same id while describing different machines.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "simulate|kernel={}|n={}|{}|synth={}{}",
            self.kernel.name(),
            self.scale.n,
            self.scenario_canonical,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

/// A validated `POST /analyze` request — static I-cache analysis for one
/// kernel, with an optional traced differential.
#[derive(Clone, Debug)]
pub struct AnalyzeRequest {
    /// The kernel to analyze.
    pub kernel: Kernel,
    /// Workload scale.
    pub scale: Scale,
    /// The resolved machine point.
    pub scenario: ScenarioSpec,
    /// Synthesis options for the FITS side.
    pub synth: SynthOptions,
    /// Skip the traced run and report the static bounds alone.
    pub static_only: bool,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
    scenario_canonical: String,
}

impl AnalyzeRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<AnalyzeRequest, ApiError> {
        let doc = parse_body(body)?;
        let obj = schema::object(&doc, "", &ANALYZE)?;
        let kernel = kernel_field(&obj)?;
        let scale = scale_field(&obj)?;
        let (scenario_canonical, scenario) = scenario_fields(&obj)?;
        let synth = synth_field(&obj, scenario.synth.clone())?;
        let static_only = obj.get("static_only")? == Some(&Value::Bool(true));
        Ok(AnalyzeRequest {
            kernel,
            scale,
            scenario,
            synth,
            static_only,
            isa: isa_field(&obj)?,
            scenario_canonical,
        })
    }

    /// The canonical request string (the cache/coalescing key). The traced
    /// differential is deterministic, so the body stays a pure function of
    /// this key even with `static_only = false`.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "analyze|kernel={}|n={}|{}|static={}|synth={}{}",
            self.kernel.name(),
            self.scale.n,
            self.scenario_canonical,
            self.static_only,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

/// A validated `POST /sweep` request.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Kernels to sweep (defaults to the full suite).
    pub kernels: Vec<Kernel>,
    /// Workload scale.
    pub scale: Scale,
    /// The grid to measure.
    pub matrix: ScenarioMatrix,
    /// Synthesis options shared by every point.
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
    canonical: String,
}

impl SweepRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field.
    pub fn from_body(body: &str) -> Result<SweepRequest, ApiError> {
        let doc = parse_body(body)?;
        let obj = schema::object(&doc, "", &SWEEP)?;
        let scale = scale_field(&obj)?;
        let kernels = kernel_list(&obj)?.unwrap_or_else(|| Kernel::ALL.to_vec());
        let preset = obj
            .get("scenario")?
            .and_then(Value::as_str)
            .unwrap_or("sa1100")
            .to_string();
        let base = ScenarioSpec::preset(&preset).ok_or_else(|| {
            ApiError::new(
                "bad_value",
                "/scenario",
                format!(
                    "unknown scenario preset {preset:?} (presets: {})",
                    PRESET_NAMES.join(" ")
                ),
            )
        })?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let sizes: Vec<u32> = number_list(&obj, "icache_bytes")?.map_or_else(
            || vec![16 * 1024, 8 * 1024],
            |sizes| sizes.iter().map(|&n| n as u32).collect(),
        );
        let tech_names = list(&obj, "tech", |item, pointer, _| {
            let name = item.as_str().unwrap_or_default();
            if tech_preset(name).is_none() {
                return Err(ApiError::new(
                    "bad_value",
                    pointer,
                    format!(
                        "unknown tech node {name:?} (nodes: {})",
                        TECH_NAMES.join(" ")
                    ),
                ));
            }
            Ok(name.to_string())
        })?
        .unwrap_or_else(|| vec![base.tech_name.clone()]);

        let synth = synth_field(&obj, base.synth.clone())?;
        let isa = isa_field(&obj)?;
        let nodes: Vec<(String, fits_power::TechParams)> = tech_names
            .iter()
            .map(|name| {
                let params = tech_preset(name).unwrap_or_else(|| base.tech.clone());
                (name.clone(), params)
            })
            .collect();
        let matrix = ScenarioMatrix::grid(&base, &sizes, &nodes)
            .map_err(|e| ApiError::new("bad_value", "/icache_bytes", e.to_string()))?;

        let canonical = format!(
            "sweep|kernels={}|n={}|preset={}|sizes={}|tech={}|synth={}{}",
            kernels
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("+"),
            scale.n,
            preset,
            sizes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            tech_names.join(","),
            synth_key(&synth),
            isa_suffix(isa.as_ref()),
        );
        Ok(SweepRequest {
            kernels,
            scale,
            matrix,
            synth,
            isa,
            canonical,
        })
    }

    /// The canonical request string (the cache/coalescing key).
    #[must_use]
    pub fn canonical(&self) -> String {
        self.canonical.clone()
    }
}

/// A validated `POST /synthesize-multi` request: one *shared* FITS ISA
/// synthesized from the merged profile of a kernel set, with per-kernel
/// regression bounds, priced at the SA-1100 reference scenario.
///
/// The member list is sorted by kernel name and the weight vector is
/// canonicalized ([`fits_core::canonical_weights`]) before the cache key
/// is built, so `{a, b}` and `{b, a}` share a key, `{1, 1}` and `{2, 2}`
/// share a key, and zero-weight members vanish from both the key and the
/// response (a request with an extra zero-weight kernel *is* the smaller
/// request).
#[derive(Clone, Debug)]
pub struct SynthesizeMultiRequest {
    /// Retained member kernels, sorted by name.
    pub kernels: Vec<Kernel>,
    /// Canonical integer weights, aligned with `kernels`.
    pub weights: Vec<u64>,
    /// Workload scale.
    pub scale: Scale,
    /// Per-kernel regression bound (dynamic expansion vs. the per-app
    /// optimum).
    pub epsilon: f64,
    /// Synthesis options shared by the merged synthesis and the per-app
    /// baselines.
    pub synth: SynthOptions,
    /// A replacement ISA catalog, or `None` for the shipped one.
    pub isa: Option<Arc<SpecCatalog>>,
}

impl SynthesizeMultiRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`] naming the offending field. Degenerate
    /// weight vectors (all-zero, negative, non-finite) are `bad_value`
    /// rejections at `/weights`, never panics.
    pub fn from_body(body: &str) -> Result<SynthesizeMultiRequest, ApiError> {
        let doc = parse_body(body)?;
        let obj = schema::object(&doc, "", &SYNTHESIZE_MULTI)?;
        let raw_kernels = kernel_list(&obj)?.unwrap_or_default();
        // The length must match before any weight's type is checked.
        if let Some(Value::Arr(items)) = doc.get("weights") {
            if items.len() != raw_kernels.len() {
                return Err(ApiError::new(
                    "bad_value",
                    "/weights",
                    format!("{} weights for {} kernels", items.len(), raw_kernels.len()),
                ));
            }
        }
        let raw_weights =
            number_list(&obj, "weights")?.unwrap_or_else(|| vec![1.0; raw_kernels.len()]);

        // Sort members by kernel name, then canonicalize the weights in
        // that order: the cache key must not depend on request spelling.
        let mut paired: Vec<(Kernel, f64)> = raw_kernels.into_iter().zip(raw_weights).collect();
        paired.sort_by_key(|(k, _)| k.name());
        let sorted_weights: Vec<f64> = paired.iter().map(|(_, w)| *w).collect();
        let canon = fits_core::canonical_weights(&sorted_weights)
            .map_err(|e| ApiError::new("bad_value", "/weights", e.to_string()))?;
        let kernels: Vec<Kernel> = paired
            .iter()
            .enumerate()
            .filter(|(i, _)| !canon.dropped.contains(i))
            .map(|(_, (k, _))| *k)
            .collect();
        // `canonical_weights` keeps dropped positions as zeros so callers
        // can line warnings up with inputs; the cache key must not.
        let weights: Vec<u64> = canon
            .weights
            .iter()
            .enumerate()
            .filter(|(i, _)| !canon.dropped.contains(i))
            .map(|(_, &w)| w)
            .collect();

        Ok(SynthesizeMultiRequest {
            kernels,
            weights,
            epsilon: obj.get("epsilon")?.and_then(Value::as_f64).unwrap_or(1.0),
            scale: scale_field(&obj)?,
            synth: synth_field(&obj, SynthOptions::default())?,
            isa: isa_field(&obj)?,
        })
    }

    /// The canonical request string (the cache/coalescing key): sorted
    /// member names plus the *canonical* weight vector, so proportional
    /// weight spellings coalesce onto one execution.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "synthesize-multi|kernels={}|w={}|n={}|eps={:.6}|synth={}{}",
            self.kernels
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("+"),
            self.weights
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.scale.n,
            self.epsilon,
            synth_key(&self.synth),
            isa_suffix(self.isa.as_ref()),
        )
    }
}

// ---------------------------------------------------------------- responses

fn saving(ours: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        1.0 - ours / base
    }
}

fn synth_json(options: &SynthOptions) -> String {
    format!(
        "{{\"toggle_aware\": {}, \"reg_bits\": {}, \"space_budget\": {:.6}, \"max_dict_bits\": {}}}",
        options.toggle_aware, options.reg_bits, options.space_budget, options.max_dict_bits,
    )
}

/// Computes the `/synthesize` response body — a pure function of the
/// request given a deterministic pipeline, shared by the daemon and the
/// differential tests.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn synthesize_body(
    artifacts: &Artifacts,
    req: &SynthesizeRequest,
) -> Result<String, ExperimentError> {
    let program = artifacts.program(req.kernel, req.scale)?;
    let flow = artifacts.flow(req.kernel, req.scale)?;
    let thumb = artifacts.thumb(req.kernel, req.scale)?;
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"synthesize\",\n  \
         \"kernel\": \"{kernel}\",\n  \"scale_n\": {n},\n  \"synth\": {synth},\n  \
         \"arm_code_bytes\": {arm},\n  \"thumb_code_bytes\": {thumb},\n  \
         \"fits_code_bytes\": {fits},\n  \"code_ratio\": {ratio:.6},\n  \
         \"mapping_static\": {ms:.6},\n  \"mapping_dynamic\": {md:.6},\n  \
         \"config_bits\": {bits},\n  \"iterations\": {iters}\n}}\n",
        kernel = escape(req.kernel.name()),
        n = req.scale.n,
        synth = synth_json(&req.synth),
        arm = program.code_bytes(),
        thumb = thumb.code_bytes(),
        fits = flow.fits.code_bytes(),
        ratio = flow.code_ratio(program.code_bytes()),
        ms = flow.mapping.static_one_to_one_rate(),
        md = flow.dynamic_rate(),
        bits = flow.fits.config.config_bits(),
        iters = flow.iterations,
    ))
}

/// Computes the `/simulate` response body (both ISAs at one machine
/// point, per-ISA numbers in the sweep schema's shape).
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn simulate_body(
    artifacts: &Artifacts,
    req: &SimulateRequest,
) -> Result<String, ExperimentError> {
    let matrix = ScenarioMatrix {
        scenarios: vec![req.scenario.clone()],
    };
    let mut runs = run_kernel_scenarios(artifacts, req.kernel, req.scale, &matrix)?;
    let run = runs.remove(0);
    let arm = fits_bench::IsaAggregate::from_run(&run.arm);
    let fits = fits_bench::IsaAggregate::from_run(&run.fits);
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"simulate\",\n  \
         \"kernel\": \"{kernel}\",\n  \"scale_n\": {n},\n  \"scenario\": \"{id}\",\n  \
         \"icache_bytes\": {bytes},\n  \"tech\": \"{tech}\",\n  \"arm\": {arm},\n  \
         \"fits\": {fits},\n  \"icache_saving\": {isave:.6},\n  \"chip_saving\": {csave:.6}\n}}\n",
        kernel = escape(req.kernel.name()),
        n = req.scale.n,
        id = escape(run.scenario.id()),
        bytes = run.scenario.icache.size_bytes,
        tech = escape(&run.scenario.tech_name),
        arm = isa_json(&arm),
        fits = isa_json(&fits),
        isave = saving(fits.icache_j(), arm.icache_j()),
        csave = saving(fits.chip_j, arm.chip_j),
    ))
}

/// Computes the `/analyze` response body: the `CA` abstract-interpretation
/// cache analysis for one kernel, embedding the full
/// `powerfits-cache-bounds-v1` report. The traced differential run is
/// deterministic, so the body is a pure function of the request and safe
/// to cache.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn analyze_body(
    artifacts: &Artifacts,
    req: &AnalyzeRequest,
) -> Result<String, ExperimentError> {
    let report = cache_bounds_report_with(
        artifacts,
        &[req.kernel],
        &req.scenario,
        req.scale,
        !req.static_only,
    )?;
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"analyze\",\n  \
         \"kernel\": \"{kernel}\",\n  \"scale_n\": {n},\n  \"scenario\": \"{id}\",\n  \
         \"traced\": {traced},\n  \"sound\": {sound},\n  \"report\": {report}\n}}\n",
        kernel = escape(req.kernel.name()),
        n = req.scale.n,
        id = escape(req.scenario.id()),
        traced = !req.static_only,
        sound = report.is_sound(),
        report = report.render_json(),
    ))
}

/// Computes the `/sweep` response body. Unlike the `fitssweep` archive
/// this carries no provenance stamp — responses must stay pure functions
/// of the request for the cache to be sound.
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn sweep_body(artifacts: &Artifacts, req: &SweepRequest) -> Result<String, ExperimentError> {
    let results = fits_bench::run_sweep_with(artifacts, &req.kernels, req.scale, &req.matrix)?;
    let kernels: Vec<String> = results
        .kernels
        .iter()
        .map(|k| format!("\"{}\"", escape(k.name())))
        .collect();
    let sizes: Vec<String> = results
        .icache_sizes
        .iter()
        .map(ToString::to_string)
        .collect();
    let tech: Vec<String> = results
        .tech_names
        .iter()
        .map(|t| format!("\"{}\"", escape(t)))
        .collect();
    let scenarios: Vec<String> = results
        .points
        .iter()
        .map(|p| {
            format!(
                "    {{\"id\": \"{id}\", \"icache_bytes\": {bytes}, \"tech\": \"{tech}\", \
                 \"arm\": {arm}, \"fits\": {fits}, \"icache_saving\": {isave:.6}, \
                 \"chip_saving\": {csave:.6}}}",
                id = escape(&p.id),
                bytes = p.icache_bytes,
                tech = escape(&p.tech_name),
                arm = isa_json(&p.arm),
                fits = isa_json(&p.fits),
                isave = p.icache_saving(),
                csave = p.chip_saving(),
            )
        })
        .collect();
    Ok(format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"sweep\",\n  \"scale_n\": {n},\n  \
         \"executions_per_kernel\": {execs},\n  \"kernels\": [{kernels}],\n  \
         \"grid\": {{\"icache_bytes\": [{sizes}], \"tech\": [{tech}]}},\n  \
         \"scenarios\": [\n{scenarios}\n  ]\n}}\n",
        n = results.scale.n,
        execs = results.executions_per_kernel,
        kernels = kernels.join(", "),
        sizes = sizes.join(", "),
        tech = tech.join(", "),
        scenarios = scenarios.join(",\n"),
    ))
}

/// Computes the `/synthesize-multi` response body: one shared ISA over
/// the member set, each member priced at the SA-1100 reference scenario
/// through [`price_shared_member`] — the *same* compiled-replay path the
/// `fitspareto` library report takes, so service and library numbers are
/// bit-identical for equal inputs.
///
/// A candidate rejected by the per-kernel regression bound is **not** an
/// internal error: the rejection is a deterministic function of the
/// request, so it renders as a 200 body with `"accepted": false` (and is
/// cached and coalesced like any other result).
///
/// # Errors
///
/// Propagates pipeline failures ([`ExperimentError`]), reported as 500s.
pub fn synthesize_multi_body(
    artifacts: &Artifacts,
    req: &SynthesizeMultiRequest,
) -> Result<String, ExperimentError> {
    let scenario = ScenarioSpec::sa1100();
    let head = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"synthesize-multi\",\n  \
         \"kernels\": [{kernels}],\n  \"weights\": [{weights}],\n  \"scale_n\": {n},\n  \
         \"epsilon\": {eps:.6},\n  \"synth\": {synth}",
        kernels = req
            .kernels
            .iter()
            .map(|k| format!("\"{}\"", escape(k.name())))
            .collect::<Vec<_>>()
            .join(", "),
        weights = req
            .weights
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        n = req.scale.n,
        eps = req.epsilon,
        synth = synth_json(&req.synth),
    );

    let programs: Vec<_> = req
        .kernels
        .iter()
        .map(|&k| artifacts.program(k, req.scale))
        .collect::<Result<_, _>>()?;
    let profiles: Vec<_> = req
        .kernels
        .iter()
        .map(|&k| artifacts.profile(k, req.scale))
        .collect::<Result<_, _>>()?;
    let members: Vec<MultiMember<'_>> = req
        .kernels
        .iter()
        .zip(&programs)
        .zip(&profiles)
        .map(|((kernel, program), profile)| MultiMember {
            name: kernel.name(),
            program,
            profile,
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let weights: Vec<f64> = req.weights.iter().map(|&w| w as f64).collect();
    let options = MultiOptions {
        synth: req.synth.clone(),
        epsilon: req.epsilon,
        ..MultiOptions::default()
    };

    let outcome = match synthesize_multi(&members, &weights, &options) {
        Ok(outcome) => outcome,
        Err(MultiError::RegressionBound {
            member,
            solo,
            shared,
            epsilon,
        }) => {
            return Ok(format!(
                "{head},\n  \"accepted\": false,\n  \"rejected\": {{\"member\": \"{m}\", \
                 \"solo_expansion\": {solo:.6}, \"shared_expansion\": {shared:.6}, \
                 \"epsilon\": {epsilon:.6}}}\n}}\n",
                m = escape(&member),
            ))
        }
        Err(e) => return Err(ExperimentError::Multi(e)),
    };

    // Per-member pricing: the shared binary through the same replay path
    // as the library report, the solo baseline from the shared artifact
    // cache.
    let matrix = ScenarioMatrix {
        scenarios: vec![scenario.clone()],
    };
    let mut member_bodies = Vec::with_capacity(outcome.members.len());
    for (kernel, m) in req.kernels.iter().zip(&outcome.members) {
        let shared_run = price_shared_member(&m.translation.fits, &scenario)?;
        let mut solo_runs = run_kernel_scenarios(artifacts, *kernel, req.scale, &matrix)?;
        let solo_run = solo_runs.remove(0).fits;
        let shared = fits_bench::IsaAggregate::from_run(&shared_run);
        let solo = fits_bench::IsaAggregate::from_run(&solo_run);
        member_bodies.push(format!(
            "    {{\"kernel\": \"{kernel}\", \"solo_code_bytes\": {scb}, \
             \"shared_code_bytes\": {hcb}, \"regression\": {reg:.6}, \
             \"solo\": {solo}, \"shared\": {shared}}}",
            kernel = escape(&m.name),
            scb = m.solo_code_bytes,
            hcb = m.translation.fits.code_bytes(),
            reg = m.regression,
            solo = isa_json(&solo),
            shared = isa_json(&shared),
        ));
    }

    Ok(format!(
        "{head},\n  \"accepted\": true,\n  \"merged_profile\": \"{hash}\",\n  \
         \"shared\": {{\"code_bytes\": {code}, \"config_bits\": {bits}, \
         \"decoder_slots\": {slots}, \"iterations\": {iters}}},\n  \
         \"members\": [\n{members}\n  ]\n}}\n",
        hash = escape(&outcome.merged_hash),
        code = outcome.shared_code_bytes(),
        bits = outcome.synthesis.config.config_bits(),
        slots = outcome.synthesis.config.ops.len(),
        iters = outcome.iterations,
        members = member_bodies.join(",\n"),
    ))
}

/// Version of the `powerfits-serve-v1` response contract reported by
/// `/healthz` (bumped when response shapes change within the same schema
/// string; `fitsctl wait` asserts it).
pub const SCHEMA_VERSION: u64 = 3;

/// The `GET /healthz` body. `uptime_s` is seconds since the daemon
/// started; `commit` is the build's git revision (or `"unknown"`).
#[must_use]
pub fn healthz_body(uptime_s: u64, commit: &str) -> String {
    let presets: Vec<String> = PRESET_NAMES
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"healthz\",\n  \
         \"status\": \"ok\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
         \"uptime_s\": {uptime_s},\n  \"commit\": \"{}\",\n  \
         \"kernels\": {},\n  \"presets\": [{}]\n}}\n",
        escape(commit),
        Kernel::ALL.len(),
        presets.join(", "),
    )
}

/// The 500 body for a pipeline failure.
#[must_use]
pub fn internal_error_body(err: &ExperimentError) -> String {
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"endpoint\": \"error\",\n  \"error\": {{\
         \"code\": \"internal\", \"pointer\": \"\", \"message\": \"{}\"}}\n}}\n",
        escape(&err.to_string()),
    )
}

// ---------------------------------------------------------------- validation

const NUM: Shape = Shape::NUM;
const HEAD: Shape = Shape::obj(&[
    Field::req("schema", Shape::one_of(&[SCHEMA])),
    Field::req("endpoint", STR),
]);
const HEALTHZ: Shape = Shape::obj(&[
    Field::req("status commit", STR),
    Field::req("kernels schema_version uptime_s", NUM),
]);
const GAUGE: Shape = Shape::obj(&[Field::req("last min max mean samples", NUM)]);
const METRICS: Shape = Shape::obj(&[
    Field::req(
        "requests ok client_errors server_errors rejected cache_hits coalesced_joins \
         executions cache_entries queue_depth queue_capacity workers uptime_s",
        NUM,
    ),
    Field::req(
        "latency_us",
        Shape::obj(&[Field::req("count mean p50 p99 max", NUM)]),
    ),
    Field::req("log", Shape::obj(&[Field::req("emitted dropped", NUM)])),
    Field::req(
        "window",
        Shape::arr(&Shape::obj(&[
            Field::req("endpoint class", STR),
            Field::req("count rate_per_sec mean p50 p99 max", NUM),
        ])),
    ),
    Field::req(
        "gauges",
        Shape::obj(&[Field::req("queue_depth cache_entries", GAUGE)]),
    ),
    Field::req(
        "spans",
        Shape::arr(&Shape::obj(&[
            Field::req("path", STR),
            Field::req("ms count", NUM),
        ])),
    ),
]);
const SYNTHESIZE_BODY: Shape = Shape::obj(&[
    Field::req("kernel", STR),
    Field::req(
        "scale_n arm_code_bytes thumb_code_bytes fits_code_bytes code_ratio mapping_static \
         mapping_dynamic config_bits iterations",
        NUM,
    ),
]);
const SIMULATE_BODY: Shape = Shape::obj(&[
    Field::req("kernel scenario tech", STR),
    Field::req("scale_n icache_bytes icache_saving chip_saving", NUM),
    Field::req("arm fits", ISA_TOTALS),
]);
const SWEEP_BODY: Shape = Shape::obj(&[
    Field::req("scale_n executions_per_kernel", NUM),
    Field::req(
        "scenarios",
        Shape::non_empty(&Shape::obj(&[
            Field::req("id", STR),
            Field::req("arm fits", ISA_TOTALS),
        ])),
    ),
]);
const MULTI_BODY: Shape = Shape::obj(&[
    Field::req("kernels weights", Shape::non_empty(&Shape::ANY)),
    Field::req("scale_n epsilon", NUM),
    Field::req("accepted", Shape::BOOL),
]);
const MULTI_ACCEPTED: Shape = Shape::obj(&[
    Field::req("merged_profile", STR),
    Field::req(
        "shared",
        Shape::obj(&[Field::req(
            "code_bytes config_bits decoder_slots iterations",
            NUM,
        )]),
    ),
    Field::req(
        "members",
        Shape::non_empty(&Shape::obj(&[
            Field::req("kernel", STR),
            Field::req("solo_code_bytes shared_code_bytes regression", NUM),
            Field::req("solo shared", ISA_TOTALS),
        ])),
    ),
]);
const MULTI_REJECTED: Shape = Shape::obj(&[Field::req(
    "rejected",
    Shape::obj(&[
        Field::req("member", STR),
        Field::req("solo_expansion shared_expansion epsilon", NUM),
    ]),
)]);
const AUDITED: Shape = Shape::obj(&[Field::req("audit_findings", NUM)]);
const ANALYZE_BODY: Shape = Shape::obj(&[
    Field::req("kernel scenario", STR),
    Field::req("scale_n", NUM),
    Field::req("sound traced", Shape::BOOL),
    Field::req(
        "report",
        Shape::obj(&[
            Field::req("schema", Shape::one_of(&["powerfits-cache-bounds-v1"])),
            Field::req(
                "kernels",
                Shape::non_empty(&Shape::obj(&[
                    Field::req("kernel", STR),
                    Field::req("arm fits", AUDITED),
                ])),
            ),
            Field::req("sound", Shape::BOOL),
        ]),
    ),
]);
const ERROR_BODY: Shape = Shape::obj(&[Field::req(
    "error",
    Shape::obj(&[Field::req("code pointer message", STR)]),
)]);

/// Validates any `fitsd` response body against the `powerfits-serve-v1`
/// schema and returns the endpoint it claims to be. `fitsctl` runs this
/// over every response it receives; the loopback tests and the CI smoke
/// job reuse it.
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_serve_json(text: &str) -> Result<String, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    check(&v, "", &HEAD).map_err(|e| e.to_string())?;
    let endpoint = v
        .get("endpoint")
        .and_then(Value::as_str)
        .unwrap_or_default();
    let shape = match endpoint {
        "healthz" => &HEALTHZ,
        "metrics" => &METRICS,
        "synthesize" => &SYNTHESIZE_BODY,
        "simulate" => &SIMULATE_BODY,
        "sweep" => &SWEEP_BODY,
        "synthesize-multi" => &MULTI_BODY,
        "analyze" => &ANALYZE_BODY,
        "error" => &ERROR_BODY,
        other => return Err(format!("unknown endpoint \"{other}\"")),
    };
    let fail = |e: Violation| format!("{endpoint}: {e}");
    check(&v, "", shape).map_err(fail)?;
    match endpoint {
        "healthz" if v.get("status").and_then(Value::as_str) != Some("ok") => {
            return Err("healthz status is not \"ok\"".to_string());
        }
        "synthesize-multi" => {
            let accepted = v.get("accepted") == Some(&Value::Bool(true));
            let outcome = if accepted {
                &MULTI_ACCEPTED
            } else {
                &MULTI_REJECTED
            };
            check(&v, "", outcome).map_err(fail)?;
        }
        "analyze" if v.get("report").and_then(|r| r.get("sound")) != v.get("sound") => {
            return Err("analyze: \"sound\" disagrees with the embedded report".to_string());
        }
        _ => {}
    }
    Ok(endpoint.to_string())
}

const REQUEST_SUMMARY: Shape = Shape::obj(&[
    Field::req("seq status us", NUM),
    Field::req("trace method endpoint cache", STR),
]);
static SPAN_TREE: Shape = Shape::obj(&[
    Field::req("name", STR),
    Field::req("us count", NUM),
    Field::req("children", Shape::arr(&SPAN_TREE)),
]);
static FLIGHT: Shape = Shape::obj(&[
    Field::req("schema", Shape::one_of(&["powerfits-flight-v1"])),
    Field::req("total", NUM),
    Field::req("recent", Shape::arr(&REQUEST_SUMMARY)),
    // Exemplars are request summaries that also carry their span trees.
    Field::req(
        "slowest",
        Shape::arr(&Shape::obj(&[Field::req("spans", Shape::arr(&SPAN_TREE))])),
    ),
]);

/// Validates a `GET /debug/flight` dump against `powerfits-flight-v1` and
/// returns the number of slowest-request exemplars it carries. Span trees
/// are checked recursively (`name`/`us`/`count`/`children` at every node).
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_flight_json(text: &str) -> Result<usize, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    check(&v, "", &FLIGHT).map_err(|e| e.to_string())?;
    let slowest = v.get("slowest").and_then(Value::as_arr).unwrap_or_default();
    for (i, exemplar) in slowest.iter().enumerate() {
        check(exemplar, &format!("/slowest/{i}"), &REQUEST_SUMMARY).map_err(|e| e.to_string())?;
    }
    Ok(slowest.len())
}

/// Dispatches a parsed POST request: canonical key plus the computation to
/// run on miss. The server's cache/coalesce layer wraps this.
pub enum PostRequest {
    /// `POST /synthesize`.
    Synthesize(SynthesizeRequest),
    /// `POST /simulate`.
    Simulate(Box<SimulateRequest>),
    /// `POST /analyze`.
    Analyze(Box<AnalyzeRequest>),
    /// `POST /sweep`.
    Sweep(SweepRequest),
    /// `POST /synthesize-multi`.
    SynthesizeMulti(SynthesizeMultiRequest),
}

impl PostRequest {
    /// Parses the body for `target` (`"/synthesize"` etc.).
    ///
    /// # Errors
    ///
    /// A structured [`ApiError`]; `None` canonical target returns
    /// `Err(None)`-free: unknown targets are handled by the router before
    /// this is called.
    pub fn from_target(target: &str, body: &str) -> Result<Option<PostRequest>, ApiError> {
        match target {
            "/synthesize" => Ok(Some(PostRequest::Synthesize(SynthesizeRequest::from_body(
                body,
            )?))),
            "/simulate" => Ok(Some(PostRequest::Simulate(Box::new(
                SimulateRequest::from_body(body)?,
            )))),
            "/analyze" => Ok(Some(PostRequest::Analyze(Box::new(
                AnalyzeRequest::from_body(body)?,
            )))),
            "/sweep" => Ok(Some(PostRequest::Sweep(SweepRequest::from_body(body)?))),
            "/synthesize-multi" => Ok(Some(PostRequest::SynthesizeMulti(
                SynthesizeMultiRequest::from_body(body)?,
            ))),
            _ => Ok(None),
        }
    }

    /// The canonical request string.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            PostRequest::Synthesize(r) => r.canonical(),
            PostRequest::Simulate(r) => r.canonical(),
            PostRequest::Analyze(r) => r.canonical(),
            PostRequest::Sweep(r) => r.canonical(),
            PostRequest::SynthesizeMulti(r) => r.canonical(),
        }
    }

    /// The synthesis options of the request (selects the [`Artifacts`]
    /// cache in the pool).
    #[must_use]
    pub fn synth(&self) -> &SynthOptions {
        match self {
            PostRequest::Synthesize(r) => &r.synth,
            PostRequest::Simulate(r) => &r.synth,
            PostRequest::Analyze(r) => &r.synth,
            PostRequest::Sweep(r) => &r.synth,
            PostRequest::SynthesizeMulti(r) => &r.synth,
        }
    }

    /// The replacement ISA catalog of the request, if any (selects the
    /// [`Artifacts`] cache in the pool together with
    /// [`PostRequest::synth`]).
    #[must_use]
    pub fn isa(&self) -> Option<&Arc<SpecCatalog>> {
        match self {
            PostRequest::Synthesize(r) => r.isa.as_ref(),
            PostRequest::Simulate(r) => r.isa.as_ref(),
            PostRequest::Analyze(r) => r.isa.as_ref(),
            PostRequest::Sweep(r) => r.isa.as_ref(),
            PostRequest::SynthesizeMulti(r) => r.isa.as_ref(),
        }
    }

    /// Runs the computation against an artifact cache configured for
    /// [`PostRequest::synth`].
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures ([`ExperimentError`]).
    pub fn compute(&self, artifacts: &Artifacts) -> Result<String, ExperimentError> {
        match self {
            PostRequest::Synthesize(r) => synthesize_body(artifacts, r),
            PostRequest::Simulate(r) => simulate_body(artifacts, r),
            PostRequest::Analyze(r) => analyze_body(artifacts, r),
            PostRequest::Sweep(r) => sweep_body(artifacts, r),
            PostRequest::SynthesizeMulti(r) => synthesize_multi_body(artifacts, r),
        }
    }
}

/// Shared artifact-pool handle the server threads use.
pub type SharedArtifacts = Arc<fits_bench::ArtifactsPool>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_parse_from_an_empty_body() {
        let req = SynthesizeRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        assert_eq!(req.kernel, Kernel::Crc32);
        assert_eq!(req.scale.n, Scale::test().n);
        assert_eq!(
            req.canonical(),
            "synthesize|kernel=crc32|n=64|synth=toggle:1,reg:4,space:1.000000,dict:6"
        );
        let sim = SimulateRequest::from_body("{\"kernel\": \"sha\"}").unwrap();
        assert_eq!(sim.scenario.id(), "sa1100-i16k");
        let sweep = SweepRequest::from_body("").unwrap();
        assert_eq!(sweep.kernels.len(), Kernel::ALL.len());
        assert_eq!(sweep.matrix.len(), 2, "default grid: two sizes, one node");
    }

    #[test]
    fn structured_errors_point_at_the_offending_field() {
        let err = SynthesizeRequest::from_body("{\"kernel\": \"nope\"}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/kernel"));
        let err = SynthesizeRequest::from_body("{}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("missing_field", "/kernel")
        );
        let err = SynthesizeRequest::from_body("not json").unwrap_err();
        assert_eq!(err.code, "parse");
        let err = SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"scal\": 2}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("unknown_field", "/scal"));
        let err = SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"scale\": 9999999}")
            .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/scale"));
        let err =
            SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"synth\": {\"reg_bits\": 7}}")
                .unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_value", "/synth/reg_bits")
        );
        let err =
            SimulateRequest::from_body("{\"kernel\": \"crc32\", \"tech\": \"3nm\"}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/tech"));
        let err = SimulateRequest::from_body("{\"kernel\": \"crc32\", \"icache_bytes\": 1000}")
            .unwrap_err();
        assert_eq!(err.pointer, "/icache_bytes");
        // Every rejection renders as a schema-valid error body.
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn canonical_keys_separate_distinct_requests() {
        let a = SimulateRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        let b = SimulateRequest::from_body(
            "{\"kernel\": \"crc32\", \"scenario\": \"small-embedded\", \"icache_bytes\": 8192}",
        )
        .unwrap();
        let c =
            SimulateRequest::from_body("{\"kernel\": \"crc32\", \"icache_bytes\": 8192}").unwrap();
        assert_ne!(a.canonical(), b.canonical());
        // Same derived id family would collide; the canonical key must not.
        assert_ne!(b.canonical(), c.canonical());
        // Identical requests written with different whitespace/field order
        // share a key.
        let d = SimulateRequest::from_body("{  \"icache_bytes\": 8192, \"kernel\": \"crc32\" }")
            .unwrap();
        assert_eq!(c.canonical(), d.canonical());
    }

    #[test]
    fn isa_field_selects_and_keys_the_catalog() {
        use fits_isa::spec::AR32_SPEC_TEXT;
        // "builtin", an omitted field, and text hash-identical to the
        // shipped spec all share the default canonical key.
        let default = SynthesizeRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        let named =
            SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"isa\": \"builtin\"}").unwrap();
        assert!(named.isa.is_none());
        assert_eq!(default.canonical(), named.canonical());
        let verbatim = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(AR32_SPEC_TEXT)
        ))
        .unwrap();
        assert!(verbatim.isa.is_none());
        assert_eq!(verbatim.canonical(), default.canonical());
        // A respelled document is a different machine description: it gets
        // its own catalog and a content-hashed canonical key.
        let respelled = AR32_SPEC_TEXT.replace(
            "# --- branches and traps ---",
            "# --- branches and traps (respelled) ---",
        );
        assert_ne!(respelled, AR32_SPEC_TEXT, "mutation needle went stale");
        let custom = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(&respelled)
        ))
        .unwrap();
        let catalog = custom.isa.clone().expect("a custom catalog");
        assert!(custom
            .canonical()
            .contains(&format!("|isa={}", catalog.hash_hex())));
        assert_ne!(custom.canonical(), default.canonical());
        // The other three endpoints key on it the same way.
        let sim = SimulateRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(&respelled)
        ))
        .unwrap();
        assert!(sim.canonical().contains("|isa="));
        let sweep = SweepRequest::from_body(&format!(
            "{{\"kernels\": [\"crc32\"], \"isa\": \"{}\"}}",
            escape(&respelled)
        ))
        .unwrap();
        assert!(sweep.canonical().contains("|isa="));
    }

    #[test]
    fn bad_isa_specs_are_rejected_before_any_work() {
        use fits_isa::spec::{AR32_SPEC_TEXT, T16_SPEC_TEXT};
        // Unparseable text is a structured 400 at /isa.
        let err =
            SynthesizeRequest::from_body("{\"kernel\": \"crc32\", \"isa\": \"isa broken {\"}")
                .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/isa"));
        // A 16-bit spec cannot replace the 32-bit execution ISA.
        let err = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(T16_SPEC_TEXT)
        ))
        .unwrap_err();
        assert!(err.message.contains("word-width"), "{}", err.message);
        // A spec the ISA lint family rejects never reaches the pipeline.
        let unbound = AR32_SPEC_TEXT.replace("form swi", "form swj");
        let err = SynthesizeRequest::from_body(&format!(
            "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
            escape(&unbound)
        ))
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/isa"));
        assert!(err.message.contains("ISA004"), "{}", err.message);
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn sweep_request_builds_the_grid() {
        let req = SweepRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"scale\": 64, \
             \"icache_bytes\": [16384, 8192], \"tech\": [\"sa1100\", \"65nm\"]}",
        )
        .unwrap();
        assert_eq!(req.kernels, vec![Kernel::Crc32, Kernel::Sha]);
        assert_eq!(req.matrix.len(), 4);
        assert!(req.canonical().contains("kernels=crc32+sha"));
        let err = SweepRequest::from_body("{\"kernels\": [\"crc32\", \"crc32\"]}").unwrap_err();
        assert_eq!(err.pointer, "/kernels/1");
    }

    #[test]
    fn healthz_and_errors_validate() {
        let body = healthz_body(42, "deadbeef");
        assert_eq!(validate_serve_json(&body).unwrap(), "healthz");
        assert!(body.contains("\"uptime_s\": 42"));
        assert!(body.contains("\"commit\": \"deadbeef\""));
        assert!(body.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(validate_serve_json("{\"schema\": \"other\"}").is_err());
        assert!(validate_serve_json("{}").is_err());
    }

    #[test]
    fn flight_dumps_validate() {
        let fr = fits_obs::FlightRecorder::new(4, 2);
        fr.record(
            fits_obs::RequestSummary {
                trace: "t1".to_string(),
                method: "POST".to_string(),
                endpoint: "synthesize".to_string(),
                status: 200,
                cache: "miss".to_string(),
                us: 1500,
                ..fits_obs::RequestSummary::default()
            },
            vec![fits_obs::Span {
                name: "execute".to_string(),
                nanos: 1_400_000,
                count: 1,
                children: Vec::new(),
            }],
        );
        assert_eq!(validate_flight_json(&fr.render_json()).unwrap(), 1);
        assert!(validate_flight_json("{}").is_err());
        assert!(validate_flight_json("{\"schema\": \"powerfits-flight-v1\"}").is_err());
    }

    #[test]
    fn analyze_request_parses_and_keys_on_the_trace_mode() {
        let traced = AnalyzeRequest::from_body("{\"kernel\": \"crc32\"}").unwrap();
        assert!(!traced.static_only);
        assert_eq!(traced.scenario.id(), "sa1100-i16k");
        let fast =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"static_only\": true}").unwrap();
        // Same machine point, different computation — distinct cache keys.
        assert_ne!(traced.canonical(), fast.canonical());
        let err =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"static_only\": 1}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_type", "/static_only")
        );
        let err =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"traced\": true}").unwrap_err();
        assert_eq!(err.code, "unknown_field");
    }

    #[test]
    fn multi_request_canonicalizes_members_and_weights() {
        // Member order and proportional weight spellings must not split
        // the cache: all four of these are the same computation.
        let a = SynthesizeMultiRequest::from_body("{\"kernels\": [\"crc32\", \"sha\"]}").unwrap();
        let b = SynthesizeMultiRequest::from_body("{\"kernels\": [\"sha\", \"crc32\"]}").unwrap();
        let c = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [2, 2]}",
        )
        .unwrap();
        let d = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0.5, 0.5]}",
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), c.canonical());
        assert_eq!(a.canonical(), d.canonical());
        assert!(a
            .canonical()
            .starts_with("synthesize-multi|kernels=crc32+sha|w=1,1|"));
        // A zero-weight member vanishes: the padded request IS the
        // two-member request, key and all.
        let padded = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"fft\", \"sha\"], \"weights\": [3, 0, 3]}",
        )
        .unwrap();
        assert_eq!(padded.kernels, vec![Kernel::Crc32, Kernel::Sha]);
        assert_eq!(padded.canonical(), a.canonical());
        // Unequal weights are a genuinely different merged profile.
        let skewed = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1, 3]}",
        )
        .unwrap();
        assert_ne!(skewed.canonical(), a.canonical());
        // ...and so is a different epsilon.
        let tight = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"epsilon\": 0.25}",
        )
        .unwrap();
        assert_ne!(tight.canonical(), a.canonical());
    }

    #[test]
    fn multi_request_rejects_degenerate_inputs() {
        let err = SynthesizeMultiRequest::from_body("{}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("missing_field", "/kernels")
        );
        let err = SynthesizeMultiRequest::from_body("{\"kernels\": []}").unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/kernels"));
        let err =
            SynthesizeMultiRequest::from_body("{\"kernels\": [\"crc32\", \"crc32\"]}").unwrap_err();
        assert_eq!(
            (err.code, err.pointer.as_str()),
            ("bad_value", "/kernels/1")
        );
        // Weight vector shape and content errors all point at /weights.
        let err = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1]}",
        )
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0, 0]}",
        )
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [1, -1]}",
        )
        .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/weights"));
        let err = SynthesizeMultiRequest::from_body("{\"kernels\": [\"crc32\"], \"epsilon\": 200}")
            .unwrap_err();
        assert_eq!((err.code, err.pointer.as_str()), ("bad_value", "/epsilon"));
        // Every rejection renders as a schema-valid error body.
        assert_eq!(validate_serve_json(&err.body()).unwrap(), "error");
    }

    #[test]
    fn multi_body_matches_the_library_pricing_bit_for_bit() {
        let req =
            SynthesizeMultiRequest::from_body("{\"kernels\": [\"bitcount\", \"crc32\"]}").unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = synthesize_multi_body(&artifacts, &req).unwrap();
        assert_eq!(validate_serve_json(&body).unwrap(), "synthesize-multi");
        assert!(body.contains("\"accepted\": true"));

        // Re-run the same synthesis through the library entry points and
        // demand the service body embeds the identical rendered numbers.
        let programs: Vec<_> = req
            .kernels
            .iter()
            .map(|&k| artifacts.program(k, req.scale).unwrap())
            .collect();
        let profiles: Vec<_> = req
            .kernels
            .iter()
            .map(|&k| artifacts.profile(k, req.scale).unwrap())
            .collect();
        let members: Vec<MultiMember<'_>> = req
            .kernels
            .iter()
            .zip(&programs)
            .zip(&profiles)
            .map(|((k, program), profile)| MultiMember {
                name: k.name(),
                program,
                profile,
            })
            .collect();
        let options = MultiOptions {
            synth: req.synth.clone(),
            epsilon: req.epsilon,
            ..MultiOptions::default()
        };
        let outcome = synthesize_multi(&members, &[1.0, 1.0], &options).unwrap();
        assert!(body.contains(&format!("\"merged_profile\": \"{}\"", outcome.merged_hash)));
        let scenario = ScenarioSpec::sa1100();
        for m in &outcome.members {
            let run = price_shared_member(&m.translation.fits, &scenario).unwrap();
            let shared = fits_bench::IsaAggregate::from_run(&run);
            assert!(
                body.contains(&format!("\"shared\": {}", isa_json(&shared))),
                "service body drifted from library pricing for {}",
                m.name
            );
        }
        // Identical requests produce identical bytes on recomputation.
        assert_eq!(body, synthesize_multi_body(&artifacts, &req).unwrap());
    }

    #[test]
    fn multi_body_renders_a_regression_rejection_as_a_200() {
        let req = SynthesizeMultiRequest::from_body(
            "{\"kernels\": [\"bitcount\", \"crc32\"], \"epsilon\": -0.99}",
        )
        .unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = synthesize_multi_body(&artifacts, &req).unwrap();
        assert_eq!(validate_serve_json(&body).unwrap(), "synthesize-multi");
        assert!(body.contains("\"accepted\": false"));
        assert!(body.contains("\"rejected\": {\"member\": "));
    }

    #[test]
    fn analyze_body_validates_and_embeds_a_sound_report() {
        let req =
            AnalyzeRequest::from_body("{\"kernel\": \"crc32\", \"static_only\": true}").unwrap();
        let artifacts = Artifacts::new().with_synth(req.synth.clone());
        let body = analyze_body(&artifacts, &req).unwrap();
        assert_eq!(validate_serve_json(&body).unwrap(), "analyze");
        assert!(body.contains("\"sound\": true"));
        // A lying top-level soundness flag is caught by the validator.
        let lying = body.replace("\"sound\": true,", "\"sound\": false,");
        assert!(validate_serve_json(&lying)
            .unwrap_err()
            .contains("disagrees"));
    }
}
