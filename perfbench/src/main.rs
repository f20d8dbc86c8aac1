//! The repository benchmark: closed-loop serving over real sockets, with
//! per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gateway-hot|hires-1024 --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its inputs from `--seed`, computes the expected reply for
//! every image by direct in-process inference, boots the servers and drives them
//! from one generator thread over two keep-alive connections with HTTP
//! pipelining, a fixed number of requests outstanding: 1 in the single phase, K
//! in the loaded phase. The two phases alternate over [`ROUNDS`] rounds; the
//! end-to-end metrics are taken over the rounds the host disturbed least, and
//! `setup_s` over batches of further server set-ups timed once the measured
//! servers have stopped. `rss_peak_mib` is the process's peak RSS above what it
//! held before the first server booted. Every reply is checked. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same rounds to read the
//! servers' counters, adds a traced single phase (every request carries
//! `"trace": true`, servers sample at 1.0) and times each layer through its
//! public entry points. The last stdout line is
//! `{"correct", "attempted", "failed", "metrics"}`; the full report, with
//! provenance and the rationale of every metric, goes to
//! `perfbench/out/<workload>-seed<N>-trace<T>.json`. Any failed request makes
//! the exit code 1, after the report is written.

mod layers;
mod loadgen;
mod report;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use serde::json::{self, JsonValue};
use vitality_serve::{protocol, ServeClient};

use loadgen::{LoadGen, PhaseResult, ReplyInfo};
use workload::{Inputs, Req, RequestStream, Spec};

/// Alternating single/loaded rounds per untraced measurement.
const ROUNDS: usize = 16;

/// Batches of server set-ups timed for `setup_s`; each boots for
/// [`SETUP_BATCH`], and at least twice.
const SETUP_BATCHES: usize = 6;

/// How long one batch of set-ups boots for.
const SETUP_BATCH: Duration = Duration::from_millis(100);

/// Largest share of the host's CPU time the hypervisor may have stolen during a
/// round or set-up batch for it to count as quiet (see [`quiet`]).
const QUIET_STEAL: f64 = 0.04;

/// Rounds, and set-up batches, the end-to-end metrics are taken over at least,
/// quiet or not.
const MIN_QUIET: usize = 4;

/// Requests per second of a measured slice that the slice has record room
/// for; a slice that reaches its room ends early (the report counts those).
const RECORD_RATE: f64 = 25_000.0;

/// Unmeasured load before the measured phases: fills workspace pools and the
/// gateway cache.
const WARMUP: Duration = Duration::from_millis(1000);

/// Largest absolute logit difference accepted, relative to `max(1, |expected|)`.
const LOGIT_TOLERANCE: f32 = 1e-4;

/// Requests of the traced phase at most (every one stays in the trace rings).
const TRACED_MAX_REQUESTS: u64 = 12_000;

/// Share of `--seconds` a traced run spends on its traced phase.
const TRACED_SHARE: f64 = 0.25;

/// Share of `--seconds` a traced run spends on the layer timers.
const LAYER_SHARE: f64 = 0.2;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::spec(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Supplies a workload's seeded requests and checks each reply against direct
/// inference.
pub(crate) struct Checked<'a> {
    inputs: &'a Inputs,
    stream: RequestStream,
    /// Set in the traced phase: requests are encoded live with `"trace": true`,
    /// and encode/decode times are kept.
    traced: Option<ClientTimes>,
}

#[derive(Default)]
struct ClientTimes {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

impl Checked<'_> {
    /// Appends the next request's complete HTTP bytes to `wire` and says which
    /// request it is.
    pub(crate) fn issue(&mut self, wire: &mut Vec<u8>) -> Req {
        let req = self.stream.next_req();
        match &mut self.traced {
            None => wire.extend_from_slice(&self.inputs.encoded[req.variant][req.image]),
            Some(times) => {
                let started = Instant::now();
                let key = &self.inputs.expected[req.variant][req.image].model;
                let bytes = workload::encode_request(key, &self.inputs.images[req.image], true);
                times.encode_us.push(started.elapsed().as_secs_f64() * 1e6);
                wire.extend_from_slice(&bytes);
            }
        }
        req
    }

    /// Checks one reply against direct inference.
    pub(crate) fn check(
        &mut self,
        req: &Req,
        status: u16,
        body: &[u8],
    ) -> Result<ReplyInfo, String> {
        let started = Instant::now();
        let text = std::str::from_utf8(body).map_err(|_| "reply body is not UTF-8".to_string())?;
        if status != 200 {
            let head: String = text.chars().take(300).collect();
            return Err(format!("status {status}: {head}"));
        }
        let parsed = json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
        let reply = protocol::parse_infer_reply(&parsed)?;
        if let Some(times) = &mut self.traced {
            times.decode_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let want = &self.inputs.expected[req.variant][req.image];
        if reply.model != want.model {
            return Err(format!("model {} answered for {}", reply.model, want.model));
        }
        if reply.prediction != want.prediction {
            return Err(format!(
                "{} image {}: prediction {} but direct inference says {}",
                want.model, req.image, reply.prediction, want.prediction
            ));
        }
        let close = reply.logits.len() == want.logits.len()
            && reply
                .logits
                .iter()
                .zip(&want.logits)
                .all(|(got, exp)| (got - exp).abs() <= LOGIT_TOLERANCE * exp.abs().max(1.0));
        if !close {
            return Err(format!(
                "{} image {}: logits {:?} but direct inference says {:?}",
                want.model, req.image, reply.logits, want.logits
            ));
        }
        Ok(ReplyInfo {
            queue_us: u32::try_from(reply.queue_us).unwrap_or(u32::MAX),
            batch_size: reply.batch_size as u64,
            cached: parsed.get("cached").and_then(JsonValue::as_bool),
        })
    }
}

/// Median and tail of one phase's latencies.
fn latency_summary(phase: &PhaseResult) -> (f64, Option<stats::Tail>) {
    let sorted = phase.sorted_latencies();
    (
        stats::median_sorted(&sorted).unwrap_or(f64::NAN),
        stats::tail(&sorted),
    )
}

/// The report entry of one phase, with the property shares it measured.
fn phase_json(name: &str, spec: &Spec, outstanding: usize, phase: &PhaseResult) -> JsonValue {
    let (p50, tail) = latency_summary(phase);
    let mut o = JsonValue::object();
    o.set("phase", name)
        .set("outstanding", outstanding)
        .set("wall_s", phase.wall_s)
        .set("sent", phase.sent)
        .set("succeeded", phase.succeeded())
        .set("failed", phase.failed)
        .set("p50_ms", p50)
        .set("throughput_rps", phase.succeeded() as f64 / phase.wall_s);
    if let Some(t) = tail {
        let mut tail_json = JsonValue::object();
        tail_json
            .set("ms", t.value)
            .set("percentile", t.percentile)
            .set("samples", t.samples);
        o.set("tail", tail_json);
    }
    let n = phase.succeeded().max(1) as f64;
    let mut mix = JsonValue::object();
    for (v, (label, _)) in spec.variants.iter().enumerate() {
        let latencies: Vec<f64> = phase
            .latencies_ms
            .iter()
            .zip(&phase.variants)
            .filter(|(_, &variant)| usize::from(variant) == v)
            .map(|(&ms, _)| f64::from(ms))
            .collect();
        let mut entry = JsonValue::object();
        entry
            .set("share", latencies.len() as f64 / n)
            .set("p50_ms", stats::median(&latencies).unwrap_or(f64::NAN));
        mix.set(label, entry);
    }
    o.set("variants", mix);
    if spec.via_gateway {
        o.set("client_hit_share", phase.cache_hits as f64 / n);
    }
    o.set("mean_batch_size", mean_batch_size(phase));
    o
}

/// Mean `batch_size` of the replies that went through an engine batch.
fn mean_batch_size(phase: &PhaseResult) -> f64 {
    phase.batch_size_sum as f64 / phase.queue_us.len().max(1) as f64
}

/// `GET path` on a fresh connection.
fn get_json(addr: SocketAddr, path: &str) -> JsonValue {
    let mut client = ServeClient::connect(addr).expect("connect for a GET");
    let (status, body) = client.get(path).expect("GET answers");
    assert_eq!(status, 200, "GET {path} on {addr}");
    body
}

/// How far the counter at `path` of a `/metrics` body moved between two reads.
fn counter_delta(before: &JsonValue, after: &JsonValue, path: &[&str]) -> f64 {
    let read = |body: &JsonValue| {
        path.iter()
            .try_fold(body, |node, key| node.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("/metrics has no number at {path:?}"))
    };
    read(after) - read(before)
}

/// One round of the untraced measurement: a single-phase slice, then a loaded
/// slice.
struct Round {
    single: PhaseResult,
    loaded: PhaseResult,
    /// Share of the host's CPU time stolen by the hypervisor during the round.
    steal_share: f64,
    /// Process CPU seconds over both slices.
    cpu_s: f64,
    /// The process's RSS and peak RSS when the round ended, in MiB.
    rss_mib: (f64, f64),
}

impl Round {
    /// This round's own end-to-end figures, for the report.
    fn json(&self, quiet: bool) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("quiet", quiet)
            .set("steal_share", self.steal_share)
            .set("rss_mib", self.rss_mib.0)
            .set("rss_peak_mib", self.rss_mib.1);
        for (name, value) in end_to_end(&[self]) {
            o.set(name, value);
        }
        o
    }
}

/// One batch of back-to-back server set-ups.
struct SetupBatch {
    /// Seconds of each set-up, in order.
    setups: Vec<f64>,
    /// Share of the host's CPU time stolen by the hypervisor during the batch.
    steal_share: f64,
}

impl SetupBatch {
    /// Boots and stops the workload's servers for [`SETUP_BATCH`], at least twice.
    fn run(args: &Args, inputs: &Inputs) -> Self {
        let host = stats::HostTicks::now();
        let started = Instant::now();
        let mut setups = Vec::new();
        while setups.len() < 2 || started.elapsed() < SETUP_BATCH {
            let (servers, setup_s) = workload::boot(&args.spec, args.seed, &inputs.images, false);
            servers.shutdown();
            setups.push(setup_s);
        }
        Self {
            setups,
            steal_share: stats::HostTicks::now().steal_share_since(&host),
        }
    }

    fn json(&self, quiet: bool) -> JsonValue {
        let mut o = JsonValue::object();
        o.set("quiet", quiet)
            .set("steal_share", self.steal_share)
            .set("setup_s", self.setups.clone());
        o
    }
}

/// What the untraced phases of a run produce.
struct Untraced {
    rounds: Vec<Round>,
    /// Every round's single slice, pooled.
    single: PhaseResult,
    /// Every round's loaded slice, pooled.
    loaded: PhaseResult,
    loadgen_cpu_s: f64,
    /// The process's RSS before the first server boots: the inputs, their
    /// expectations, the pre-encoded requests and the rounds' record room.
    rss_baseline_mib: f64,
    /// The process's peak RSS (`VmHWM`) when the rounds end, before any result is
    /// pooled and before the set-up boots.
    rss_peak_mib: f64,
    /// The set-ups timed once the measured servers stopped.
    setup_batches: Vec<SetupBatch>,
    /// `/metrics` of the server the load goes to, before and after the rounds.
    before: JsonValue,
    after: JsonValue,
}

/// Boots the servers, warms them up, then runs [`ROUNDS`] rounds, each a single
/// slice followed by a loaded slice. Alternating spreads any burst of outside
/// load over both phases, and taking the metrics over the quiet rounds keeps a
/// disturbed round from moving them. Once the peak RSS is read and the measured
/// servers have stopped, it times [`SETUP_BATCHES`] batches of set-ups for
/// `setup_s`, so no second set of servers ever counts in the peak.
fn run_untraced(args: &Args, inputs: &Inputs, single: Duration, loaded: Duration) -> Untraced {
    let spec = args.spec;
    let (single, loaded) = (single.div_f64(ROUNDS as f64), loaded.div_f64(ROUNDS as f64));
    let room = |slice: Duration| (slice.as_secs_f64() * RECORD_RATE).ceil() as usize;
    let mut slices: Vec<(PhaseResult, PhaseResult)> = (0..ROUNDS)
        .map(|_| {
            (
                PhaseResult::with_room(room(single)),
                PhaseResult::with_room(room(loaded)),
            )
        })
        .collect();
    let rss_baseline_mib = stats::rss_mib();
    let (servers, _) = workload::boot(&spec, args.seed, &inputs.images, false);
    let mut gen = LoadGen::connect(servers.front_addr()).expect("connect the generator");
    let mut traffic = Checked {
        inputs,
        stream: RequestStream::new(spec, args.seed),
        traced: None,
    };
    let warmup = gen.run(
        &mut traffic,
        spec.loaded_k,
        WARMUP,
        u64::MAX,
        PhaseResult::default(),
    );
    assert_eq!(warmup.failed, 0, "warm-up requests failed");

    let before = get_json(servers.front_addr(), "/metrics");
    let mut loadgen_cpu_s = 0.0;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for (single_into, loaded_into) in slices.drain(..) {
        let host = stats::HostTicks::now();
        let (cpu, gen_cpu) = (stats::process_cpu_s(), stats::thread_cpu_s());
        let single = gen.run(&mut traffic, 1, single, room(single) as u64, single_into);
        let loaded = gen.run(
            &mut traffic,
            spec.loaded_k,
            loaded,
            room(loaded) as u64,
            loaded_into,
        );
        loadgen_cpu_s += stats::thread_cpu_s() - gen_cpu;
        rounds.push(Round {
            single,
            loaded,
            cpu_s: stats::process_cpu_s() - cpu,
            steal_share: stats::HostTicks::now().steal_share_since(&host),
            rss_mib: (stats::rss_mib(), stats::rss_peak_mib()),
        });
    }
    let rss_peak_mib = stats::rss_peak_mib();
    let after = get_json(servers.front_addr(), "/metrics");
    drop(gen);
    servers.shutdown();
    let setup_batches = (0..SETUP_BATCHES)
        .map(|_| SetupBatch::run(args, inputs))
        .collect();
    let (single, loaded, _) = pool(&rounds.iter().collect::<Vec<_>>());
    Untraced {
        rounds,
        single,
        loaded,
        loadgen_cpu_s,
        rss_baseline_mib,
        rss_peak_mib,
        setup_batches,
        before,
        after,
    }
}

/// Indices of the intervals (rounds or set-up batches) during which the
/// hypervisor stole at most [`QUIET_STEAL`] of the host's CPU time, in run
/// order — or, when fewer qualify, the [`MIN_QUIET`] with the least steal. On a
/// shared host steal comes in bursts of seconds to minutes; it stalls every
/// thread at once and moves wall-clock figures far more than the share itself
/// (a round with 20% steal can halve throughput and triple the tail), so the
/// end-to-end metrics leave the disturbed intervals out. Where the host reports
/// no steal, every interval counts.
fn quiet(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quiet = order
        .iter()
        .take_while(|&&i| steal[i] <= QUIET_STEAL)
        .count();
    order.truncate(quiet.max(MIN_QUIET));
    order.sort_unstable();
    order
}

/// Root spans of the newest `limit` traces in a server's `/debug/traces` ring:
/// per-stage durations, and the per-trace sum of all root spans.
fn ring_stages(addr: SocketAddr, limit: usize) -> (BTreeMap<String, Vec<f64>>, Vec<f64>) {
    let body = get_json(addr, &format!("/debug/traces?limit={limit}"));
    let mut stages: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut sums = Vec::new();
    for trace in body
        .get("traces")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let mut sum = 0.0;
        for span in trace
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            let name = span.get("name").and_then(JsonValue::as_str).unwrap_or("?");
            let dur = span
                .get("dur_us")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            stages.entry(name.to_string()).or_default().push(dur);
            sum += dur;
        }
        sums.push(sum);
    }
    (stages, sums)
}

/// What the traced phase produces.
struct Traced {
    phase: PhaseResult,
    times: ClientTimes,
    engine: BTreeMap<String, Vec<f64>>,
    gateway: BTreeMap<String, Vec<f64>>,
    front_sums: Vec<f64>,
}

fn run_traced(args: &Args, inputs: &Inputs, duration: Duration) -> Traced {
    let spec = args.spec;
    let (servers, _) = workload::boot(&spec, args.seed, &inputs.images, true);
    let mut gen = LoadGen::connect(servers.front_addr()).expect("connect the generator");
    let mut traffic = Checked {
        inputs,
        stream: RequestStream::new(spec, args.seed.wrapping_add(1)),
        traced: None,
    };
    let warmup = gen.run(
        &mut traffic,
        spec.loaded_k,
        WARMUP / 2,
        u64::MAX,
        PhaseResult::default(),
    );
    assert_eq!(warmup.failed, 0, "warm-up requests failed");
    traffic.traced = Some(ClientTimes::default());
    let phase = gen.run(
        &mut traffic,
        1,
        duration,
        TRACED_MAX_REQUESTS,
        PhaseResult::default(),
    );
    drop(gen);
    // Engine traces exist for every request that reached the engine: all of
    // them, or the cache misses behind a gateway.
    let reached_engine = phase.queue_us.len() + phase.failed as usize;
    let front_requests = phase.sent as usize;
    let (engine, engine_sums) = ring_stages(servers.engine.local_addr(), reached_engine);
    let (gateway, front_sums) = match &servers.gateway {
        Some(gateway) => ring_stages(gateway.local_addr(), front_requests),
        None => (BTreeMap::new(), engine_sums),
    };
    servers.shutdown();
    Traced {
        phase,
        times: traffic.traced.take().unwrap_or_default(),
        engine,
        gateway,
        front_sums,
    }
}

fn stage_median(stages: &BTreeMap<String, Vec<f64>>, name: &str) -> f64 {
    stages
        .get(name)
        .and_then(|v| stats::median(v))
        .unwrap_or(0.0)
}

/// The single and loaded slices of `rounds`, pooled, and their CPU seconds.
fn pool(rounds: &[&Round]) -> (PhaseResult, PhaseResult, f64) {
    let mut single = PhaseResult::default();
    let mut loaded = PhaseResult::default();
    for round in rounds {
        single.absorb(&round.single);
        loaded.absorb(&round.loaded);
    }
    (single, loaded, rounds.iter().map(|r| r.cpu_s).sum())
}

/// The end-to-end metrics of `rounds` (the quiet ones): latencies, throughput
/// and CPU from their slices pooled.
fn end_to_end(rounds: &[&Round]) -> Vec<(&'static str, f64)> {
    let (single, loaded, cpu_s) = pool(rounds);
    let (single_p50, _) = latency_summary(&single);
    let (loaded_p50, loaded_tail) = latency_summary(&loaded);
    let succeeded = single.succeeded() + loaded.succeeded();
    vec![
        ("single_p50_ms", single_p50),
        ("loaded_p50_ms", loaded_p50),
        ("loaded_p99_ms", loaded_tail.map_or(f64::NAN, |t| t.value)),
        ("throughput_rps", loaded.succeeded() as f64 / loaded.wall_s),
        ("cpu_ms_per_req", 1e3 * cpu_s / succeeded.max(1) as f64),
    ]
}

/// The per-layer metrics: the layer timers, the counters and reply fields of the
/// untraced rounds, and the stage spans of the traced phase.
fn per_layer(
    args: &Args,
    untraced: &Untraced,
    single_p50: f64,
    traced: &Traced,
) -> Vec<(&'static str, f64)> {
    let mut metrics = layers::measure(
        args.seed,
        Duration::from_secs_f64(
            args.seconds * LAYER_SHARE / report::catalogue().per_layer.len() as f64,
        ),
    );
    let delta = |path: &[&str]| counter_delta(&untraced.before, &untraced.after, path);
    // Counter deltas span every round, single slices included.
    let requests = (untraced.single.sent + untraced.loaded.sent) as f64;
    let succeeded = (untraced.single.succeeded() + untraced.loaded.succeeded()).max(1) as f64;
    let queue_ms: Vec<f64> = untraced
        .loaded
        .queue_us
        .iter()
        .map(|&us| f64::from(us) / 1e3)
        .collect();
    let wakeups = delta(&["event_loop", "wakeups"]);
    let (hit_ratio, evictions, retries) = if args.spec.via_gateway {
        let hits = delta(&["cache", "hits"]);
        let misses = delta(&["cache", "misses"]);
        (
            hits / (hits + misses).max(1.0),
            delta(&["cache", "evictions"]) / requests,
            delta(&["retries"]),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    metrics.extend([
        (
            "batcher.queue_wait_p50_ms",
            stats::median(&queue_ms).unwrap_or(0.0),
        ),
        ("batcher.mean_batch_size", mean_batch_size(&untraced.loaded)),
        ("front.wakeups_per_req", wakeups / requests),
        (
            "front.events_per_wake",
            delta(&["event_loop", "ready_events"]) / wakeups.max(1.0),
        ),
        ("gateway.cache_hit_ratio", hit_ratio),
        ("gateway.evictions_per_req", evictions),
        ("gateway.retries", retries),
        (
            "loadgen.cpu_ms_per_req",
            1e3 * untraced.loadgen_cpu_s / succeeded,
        ),
    ]);
    for (name, stage) in [
        ("trace.engine.parse_us", "parse"),
        ("trace.engine.queue_wait_us", "queue_wait"),
        ("trace.engine.batch_assembly_us", "batch_assembly"),
        ("trace.engine.compute_us", "compute"),
        ("trace.engine.serialize_us", "serialize"),
        ("trace.engine.write_us", "write"),
    ] {
        metrics.push((name, stage_median(&traced.engine, stage)));
    }
    for (name, stage) in [
        ("trace.gateway.parse_us", "parse"),
        ("trace.gateway.cache_probe_us", "cache_probe"),
        ("trace.gateway.pick_us", "pick"),
        ("trace.gateway.backend_attempt_us", "backend_attempt"),
    ] {
        metrics.push((name, stage_median(&traced.gateway, stage)));
    }
    let decode_us = stats::median(&traced.times.decode_us).unwrap_or(0.0);
    let server_us = stats::median(&traced.front_sums).unwrap_or(0.0);
    let (traced_p50, _) = latency_summary(&traced.phase);
    metrics.extend([
        (
            "trace.client_encode_us",
            stats::median(&traced.times.encode_us).unwrap_or(0.0),
        ),
        ("trace.client_decode_us", decode_us),
        // Requests are pre-encoded, so the measured latency holds no client
        // encode; the traced phase's spans are set against its own p50.
        (
            "trace.unaccounted_frac",
            1.0 - (server_us + decode_us) / (1e3 * traced_p50),
        ),
        ("trace.overhead_ratio", traced_p50 / single_p50),
    ]);
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let spec = args.spec;
    let budget = Duration::from_secs_f64(args.seconds);
    let inputs = Inputs::generate(&spec, args.seed);

    // Share of --seconds per phase: untraced runs split it 30/70 between the
    // single and loaded phases (the loaded figures are the noisier); traced runs
    // spend 20% and 35% on them, 25% on the traced phase and 20% on the layer
    // timers.
    let (single_share, loaded_share) = if args.trace { (0.2, 0.35) } else { (0.3, 0.7) };
    let untraced = run_untraced(
        &args,
        &inputs,
        budget.mul_f64(single_share),
        budget.mul_f64(loaded_share),
    );
    let mut phases = vec![
        phase_json("single", &spec, 1, &untraced.single),
        phase_json("loaded", &spec, spec.loaded_k, &untraced.loaded),
    ];
    let mut attempted = untraced.single.sent + untraced.loaded.sent;
    let mut failed = untraced.single.failed + untraced.loaded.failed;
    let steal: Vec<f64> = untraced.rounds.iter().map(|r| r.steal_share).collect();
    let rounds: &Vec<&Round> = &quiet(&steal)
        .into_iter()
        .map(|i| &untraced.rounds[i])
        .collect();
    let steal: Vec<f64> = untraced
        .setup_batches
        .iter()
        .map(|b| b.steal_share)
        .collect();
    let quiet_batches = quiet(&steal);
    let setups: Vec<f64> = quiet_batches
        .iter()
        .flat_map(|&i| untraced.setup_batches[i].setups.iter().copied())
        .collect();
    let mut e2e = end_to_end(rounds);
    e2e.extend([
        ("setup_s", stats::median(&setups).unwrap_or(f64::NAN)),
        (
            "rss_peak_mib",
            untraced.rss_peak_mib - untraced.rss_baseline_mib,
        ),
    ]);
    let metrics = if args.trace {
        let traced = run_traced(&args, &inputs, budget.mul_f64(TRACED_SHARE));
        attempted += traced.phase.sent;
        failed += traced.phase.failed;
        phases.push(phase_json("traced-single", &spec, 1, &traced.phase));
        let (_, single_p50) = e2e
            .iter()
            .find(|(name, _)| *name == "single_p50_ms")
            .copied()
            .expect("single_p50_ms is an end-to-end metric");
        per_layer(&args, &untraced, single_p50, &traced)
    } else {
        e2e
    };

    // Units and order come from BENCHMARK.json, which must list exactly the
    // metrics measured.
    let catalogue = report::catalogue();
    let listed = if args.trace {
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    for (name, _) in &metrics {
        assert!(
            listed.iter().any(|m| m.name == *name),
            "metric {name} is measured but BENCHMARK.json does not list it"
        );
    }
    let mut metrics_json = JsonValue::object();
    for metric in listed {
        let (_, value) = metrics
            .iter()
            .find(|(n, _)| *n == metric.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
        let mut m = JsonValue::object();
        m.set("value", *value).set("unit", metric.unit.as_str());
        metrics_json.set(&metric.name, m);
    }
    let correct = failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());

    let mut properties = JsonValue::object();
    properties
        .set("rounds", ROUNDS)
        .set("quiet_steal_limit", QUIET_STEAL)
        .set("quiet_rounds", rounds.len())
        .set(
            "rounds_detail",
            untraced
                .rounds
                .iter()
                .map(|r| r.json(rounds.iter().any(|q| std::ptr::eq(*q, r))))
                .collect::<Vec<JsonValue>>(),
        );
    if let (_, Some(tail)) = latency_summary(&pool(rounds).1) {
        properties
            .set("loaded_tail_percentile", tail.percentile)
            .set("loaded_tail_samples", tail.samples);
    }
    properties
        .set("rss_baseline_mib", untraced.rss_baseline_mib)
        .set("rss_run_peak_mib", untraced.rss_peak_mib)
        .set(
            "slices_out_of_room",
            untraced
                .rounds
                .iter()
                .flat_map(|r| [&r.single, &r.loaded])
                .filter(|p| p.sent as usize >= p.latencies_ms.capacity())
                .count(),
        )
        .set(
            "setup_batches",
            untraced
                .setup_batches
                .iter()
                .enumerate()
                .map(|(i, b)| b.json(quiet_batches.contains(&i)))
                .collect::<Vec<JsonValue>>(),
        );
    if spec.via_gateway {
        let delta = |path: &[&str]| counter_delta(&untraced.before, &untraced.after, path);
        let hits = delta(&["cache", "hits"]);
        let misses = delta(&["cache", "misses"]);
        properties.set("gateway_hit_ratio", hits / (hits + misses).max(1.0));
    }
    let mut load = JsonValue::object();
    load.set("loop", "closed")
        .set("generator_threads", 1usize)
        .set("connections", loadgen::connections())
        .set("pipelining", true)
        .set("single_outstanding", 1usize)
        .set("loaded_outstanding", spec.loaded_k);
    let mut report_json = JsonValue::object();
    report_json
        .set("workload", spec.name)
        .set("why", report::why(spec.name))
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("provenance", report::provenance(&spec))
        .set("load", load)
        .set("phases", phases)
        .set("properties", properties)
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics_json.clone())
        .set("rationale", report::rationale_json());
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, report_json.to_json_pretty()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }

    let mut line = JsonValue::object();
    line.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics_json);
    println!("{}", line.to_json());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picked(steal: &[f64]) -> Vec<f64> {
        quiet(steal).into_iter().map(|i| steal[i]).collect()
    }

    #[test]
    fn quiet_rounds_keep_every_round_under_the_steal_limit_in_run_order() {
        assert_eq!(
            picked(&[0.3, 0.01, 0.02, 0.5, 0.0, 0.04]),
            [0.01, 0.02, 0.0, 0.04]
        );
        assert_eq!(picked(&[0.0; 10]).len(), 10);
    }

    #[test]
    fn quiet_rounds_fall_back_to_the_least_disturbed() {
        assert_eq!(
            picked(&[0.3, 0.2, 0.1, 0.4, 0.01, 0.5]),
            [0.3, 0.2, 0.1, 0.01]
        );
    }
}
