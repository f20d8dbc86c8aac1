//! The metric catalogue, read from `BENCHMARK.json`, the rationale of every
//! per-layer metric, and the provenance block written with each run.

use std::sync::OnceLock;

use serde::json::{self, JsonValue};

use crate::workload::{model_config, Spec};

/// `BENCHMARK.json` at the repository root, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric `BENCHMARK.json` lists.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median it may worsen by (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Catalogue {
    /// `(name, why)` of every workload.
    pub workloads: Vec<(String, String)>,
    /// The end-to-end metrics, reported with `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics, reported with `--trace 1`.
    pub per_layer: Vec<Metric>,
}

fn field(entry: &JsonValue, key: &str) -> String {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry without {key:?}"))
        .to_string()
}

fn entries<'a>(root: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    root.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} list"))
}

fn metrics(root: &JsonValue, key: &str) -> Vec<Metric> {
    entries(root, key)
        .iter()
        .map(|entry| Metric {
            name: field(entry, "name"),
            unit: field(entry, "unit"),
            better: field(entry, "better"),
            bound: entry.get("bound").and_then(JsonValue::as_f64),
        })
        .collect()
}

/// The catalogue, parsed once.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        Catalogue {
            workloads: entries(&root, "workloads")
                .iter()
                .map(|entry| (field(entry, "name"), field(entry, "why")))
                .collect(),
            end_to_end: metrics(&root, "end_to_end"),
            per_layer: metrics(&root, "per_layer"),
        }
    })
}

/// The one-line reason `BENCHMARK.json` gives for a workload.
pub fn why(workload: &str) -> &'static str {
    catalogue()
        .workloads
        .iter()
        .find(|(name, _)| name == workload)
        .map_or("", |(_, why)| why)
}

const N196_COMPUTE: &str =
    "loaded_p99_ms and cpu_ms_per_req on gateway-hot (its cache misses run the n=196 model)";
const BOTH_MODELS: &str =
    "single_p50_ms on hires-1024, and loaded_p99_ms on gateway-hot (cache misses)";
const JSON: &str = "no workload sends JSON; the per-request cost of a JSON client";
const HIRES_SINGLE: &str = "single_p50_ms on hires-1024";
const GATEWAY_CLIENT: &str = "single_p50_ms and cpu_ms_per_req on gateway-hot";
const GATEWAY_CACHE: &str = "single_p50_ms and throughput_rps on gateway-hot";
const BATCHING: &str = "loaded_p50_ms and throughput_rps on hires-1024";
const TRACE: &str = "attribution of single_p50_ms on every workload (traced run)";
const GATEWAY_TRACE: &str =
    "attribution of single_p50_ms on gateway-hot (traced run; 0 where no gateway runs)";

/// What each per-layer metric should move: which end-to-end metric, on which
/// workload.
const MOVES: &[(&str, &str)] = &[
    ("rayon.join_noop_us", "single_p50_ms and cpu_ms_per_req on hires-1024 (fan-out per GEMM and softmax call); predicted unchanged for gateway-hot cache hits"),
    ("tensor.gemm_196x32x32_us", BOTH_MODELS),
    ("tensor.gemm_1024x32x64_us", BOTH_MODELS),
    ("attention.taylor_196_us", N196_COMPUTE),
    ("attention.taylor_1024_us", HIRES_SINGLE),
    ("attention.int8_1024_us", HIRES_SINGLE),
    ("attention.softmax_1024_us", "throughput_rps and loaded_p99_ms on hires-1024"),
    ("nn.embed_196_us", N196_COMPUTE),
    ("nn.layernorm_196_us", N196_COMPUTE),
    ("nn.linear_196_us", N196_COMPUTE),
    ("nn.mlp_196_us", N196_COMPUTE),
    ("nn.mlp_1024_us", HIRES_SINGLE),
    ("nn.head_196_us", N196_COMPUTE),
    ("vit.mha_taylor_196_us", BOTH_MODELS),
    ("vit.block_taylor_196_us", BOTH_MODELS),
    ("vit.infer_taylor_196_us", BOTH_MODELS),
    ("vit.infer_taylor_1024_us", BOTH_MODELS),
    ("vit.infer_int8_1024_us", BOTH_MODELS),
    ("vit.infer_softmax_1024_us", "throughput_rps and loaded_p99_ms on hires-1024"),
    ("vit.mha_copy_196_us", BOTH_MODELS),
    ("vit.layer_sum_ratio", BOTH_MODELS),
    ("protocol.json_encode_196_us", JSON),
    ("protocol.json_parse_196_us", JSON),
    ("protocol.binary_decode_196_us", GATEWAY_CLIENT),
    ("protocol.binary_decode_1024_us", HIRES_SINGLE),
    ("protocol.reply_encode_us", GATEWAY_CLIENT),
    ("protocol.reply_parse_us", GATEWAY_CLIENT),
    ("http.request_parse_196_us", "single_p50_ms on gateway-hot (every request is framed by it)"),
    ("gateway.cache_get_us", GATEWAY_CACHE),
    ("gateway.cache_put_us", GATEWAY_CACHE),
    ("gateway.image_hash_196_us", GATEWAY_CACHE),
    ("batcher.queue_wait_p50_ms", BATCHING),
    ("batcher.mean_batch_size", BATCHING),
    ("front.wakeups_per_req", "throughput_rps on gateway-hot"),
    ("front.events_per_wake", "throughput_rps on gateway-hot"),
    ("gateway.cache_hit_ratio", "single_p50_ms and throughput_rps on gateway-hot (0 where no gateway runs)"),
    ("gateway.evictions_per_req", "loaded_p99_ms on gateway-hot (0 where no gateway runs)"),
    ("gateway.retries", "loaded_p99_ms on gateway-hot (0 where no gateway runs)"),
    ("loadgen.cpu_ms_per_req", "separates the generator's share of cpu_ms_per_req on every workload"),
    ("trace.engine.parse_us", TRACE),
    ("trace.engine.queue_wait_us", TRACE),
    ("trace.engine.batch_assembly_us", TRACE),
    ("trace.engine.compute_us", TRACE),
    ("trace.engine.serialize_us", TRACE),
    ("trace.engine.write_us", TRACE),
    ("trace.gateway.parse_us", GATEWAY_TRACE),
    ("trace.gateway.cache_probe_us", GATEWAY_TRACE),
    ("trace.gateway.pick_us", GATEWAY_TRACE),
    ("trace.gateway.backend_attempt_us", GATEWAY_TRACE),
    ("trace.client_encode_us", "the client's request encoding, outside the measured latency (requests are pre-encoded)"),
    ("trace.client_decode_us", TRACE),
    ("trace.unaccounted_frac", TRACE),
    ("trace.overhead_ratio", "cost of tracing every request: traced over untraced single_p50_ms"),
];

/// Which end-to-end metric a per-layer metric should move.
fn moves(metric: &str) -> &'static str {
    MOVES
        .iter()
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, moves)| moves)
}

/// The catalogue as JSON, with the rationale of every per-layer metric, for the
/// run report.
pub fn rationale_json() -> JsonValue {
    let catalogue = catalogue();
    let end_to_end: Vec<JsonValue> = catalogue
        .end_to_end
        .iter()
        .map(|m| {
            let mut o = JsonValue::object();
            o.set("name", m.name.as_str())
                .set("unit", m.unit.as_str())
                .set("better", m.better.as_str())
                .set("bound", m.bound.unwrap_or(f64::NAN));
            o
        })
        .collect();
    let per_layer: Vec<JsonValue> = catalogue
        .per_layer
        .iter()
        .map(|m| {
            let mut o = JsonValue::object();
            o.set("name", m.name.as_str())
                .set("unit", m.unit.as_str())
                .set("better", m.better.as_str())
                .set("moves", moves(&m.name));
            o
        })
        .collect();
    let mut root = JsonValue::object();
    root.set("end_to_end", end_to_end)
        .set("per_layer", per_layer);
    root
}

/// The commit the checkout was made from, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .unwrap_or_else(|| format!("unknown ({reference})")),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Where and on what the numbers were measured, so they are never compared across
/// hosts or shapes unnoticed.
pub fn provenance(spec: &Spec) -> JsonValue {
    let features = vitality_tensor::cpu_features();
    let mut cpu = JsonValue::object();
    cpu.set("avx2", features.avx2).set("fma", features.fma);
    let cfg = model_config(spec.image_size);
    let mut model = JsonValue::object();
    model
        .set("image_size", cfg.image_size)
        .set("patch_size", cfg.patch_size)
        .set("tokens", cfg.tokens())
        .set("embed_dim", cfg.embed_dim)
        .set("heads", cfg.heads)
        .set("head_dim", cfg.head_dim())
        .set("layers", cfg.layers)
        .set(
            "mlp_hidden",
            (cfg.embed_dim as f32 * cfg.mlp_ratio).round() as usize,
        )
        .set("classes", cfg.classes);
    let mut root = JsonValue::object();
    root.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
    .set("matmul_backend", vitality_tensor::matmul_backend().label())
    .set("cpu_flags", cpu)
    .set("perf_supported", perf::supported())
    .set("model", model)
    .set("git_commit", git_commit());
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn every_listed_workload_is_defined_in_order() {
        let listed: Vec<&str> = catalogue().workloads.iter().map(|w| w.0.as_str()).collect();
        let defined: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, defined);
    }

    #[test]
    fn every_per_layer_metric_has_one_rationale() {
        let mut listed: Vec<&str> = catalogue()
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let mut explained: Vec<&str> = MOVES.iter().map(|m| m.0).collect();
        listed.sort_unstable();
        explained.sort_unstable();
        assert_eq!(listed, explained);
    }

    #[test]
    fn metric_names_are_unique() {
        let catalogue = catalogue();
        let mut names: Vec<&str> = catalogue
            .end_to_end
            .iter()
            .chain(&catalogue.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
