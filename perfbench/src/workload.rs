//! The workloads: their shapes, their seeded request streams, the image
//! pools and expectations the replies are checked against, and the server set-up
//! whose time `setup_s` reports.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vitality_gateway::{Gateway, GatewayConfig};
use vitality_serve::protocol::{self, InferOptions, BINARY_CONTENT_TYPE};
use vitality_serve::{ModelRegistry, ServeClient, Server, ServerConfig};
use vitality_tensor::{init, Matrix};
use vitality_vit::{AttentionVariant, TrainConfig, VisionTransformer};

/// One workload's fixed shape. Everything random about it comes from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`, which says why the
    /// workload exists.
    pub name: &'static str,
    /// Side of the square input image; tokens are `(side / 4)^2`.
    pub image_size: usize,
    /// Requests go through a gateway (default config) in front of the engine.
    pub via_gateway: bool,
    /// Requests outstanding in the loaded phase.
    pub loaded_k: usize,
    /// Attention variants served, each with its weight: every block of
    /// `sum(weights)` consecutive requests holds each variant exactly `weight`
    /// times, in a seeded order.
    pub variants: &'static [(&'static str, usize)],
    /// When non-zero, one request in every block of this many (at a seeded
    /// position) takes the next image of the fresh pool instead.
    pub fresh_every: usize,
    /// Images in the fresh pool, cycled in a seeded order.
    pub fresh_pool: usize,
}

/// Images drawn uniformly per request: the hot set on `gateway-hot`, every image
/// on `hires-1024`.
pub const POOL: usize = 16;

/// Every workload, in the order `BENCHMARK.json` lists them. A third one, JSON
/// requests straight to the engine at n = 196 (`served-196`), is left out: its
/// loaded tail was the least steady figure on a shared two-vCPU host, and two
/// workloads leave each run twice the time.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "gateway-hot",
        image_size: 56,
        via_gateway: true,
        loaded_k: 16,
        variants: &[("taylor", 1)],
        fresh_every: 20,
        // 1.5x the cache's 1024 entries: every fresh image is evicted (its shard
        // sees about 190 newer inserts against 128 slots) before it comes round
        // again, so each fresh request is a miss, a cache write and an eviction.
        fresh_pool: 1536,
    },
    Spec {
        name: "hires-1024",
        image_size: 128,
        via_gateway: false,
        loaded_k: 8,
        variants: &[("taylor", 2), ("int8", 2), ("softmax", 1)],
        fresh_every: 0,
        fresh_pool: 0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Images the int8 variant is calibrated on (the head of the pool).
const CALIBRATION_IMAGES: usize = 8;

/// Independent random streams derived from the one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Model weights.
    Weights = 1,
    /// Image pixels.
    Pixels = 2,
    /// Per-request draws: pool index, hot/fresh, variant.
    Draws = 3,
    /// The fresh pool's cycle order.
    FreshOrder = 4,
    /// Operands of the per-layer timers.
    Layers = 5,
}

/// The generator for one stream of one seed.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream as u64)
}

/// The model shape every workload serves, at the given image side.
pub fn model_config(image_size: usize) -> TrainConfig {
    TrainConfig {
        image_size,
        patch_size: 4,
        embed_dim: 32,
        heads: 4,
        layers: 2,
        mlp_ratio: 2.0,
        classes: 8,
    }
}

/// The registry name of a workload's model (`vit196`, `vit1024`).
pub fn model_name(spec: &Spec) -> String {
    format!("vit{}", model_config(spec.image_size).tokens())
}

/// One request: which image, sent to which variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Index into [`Inputs::images`].
    pub image: usize,
    /// Index into [`Spec::variants`].
    pub variant: usize,
}

/// A block of values dealt in a seeded order and reshuffled when used up, so
/// every block holds each value exactly as often as declared.
#[derive(Debug)]
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(cards: Vec<usize>) -> Self {
        let next = cards.len();
        Self { cards, next }
    }

    fn deal(&mut self, rng: &mut StdRng) -> usize {
        if self.next == self.cards.len() {
            shuffle(&mut self.cards, rng);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// Fisher-Yates.
fn shuffle(values: &mut [usize], rng: &mut StdRng) {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.gen_range(0..=i));
    }
}

/// The seeded request sequence of one run. It depends only on the seed, never on
/// timing: the i-th request issued is the i-th value drawn.
#[derive(Debug)]
pub struct RequestStream {
    draws: StdRng,
    variants: Deck,
    /// 1 marks the request of a block that takes a fresh image.
    fresh: Deck,
    fresh_order: Vec<usize>,
    fresh_next: usize,
}

impl RequestStream {
    /// The stream for `spec` under `seed`.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let mut fresh_order: Vec<usize> = (0..spec.fresh_pool).collect();
        shuffle(&mut fresh_order, &mut rng(seed, Stream::FreshOrder));
        let variants = spec
            .variants
            .iter()
            .enumerate()
            .flat_map(|(v, &(_, weight))| std::iter::repeat_n(v, weight))
            .collect();
        let mut fresh = vec![0; spec.fresh_every.max(1)];
        if spec.fresh_every > 0 {
            fresh[0] = 1;
        }
        Self {
            draws: rng(seed, Stream::Draws),
            variants: Deck::new(variants),
            fresh: Deck::new(fresh),
            fresh_order,
            fresh_next: 0,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let image = if self.fresh.deal(&mut self.draws) == 1 {
            let fresh = self.fresh_order[self.fresh_next];
            self.fresh_next = (self.fresh_next + 1) % self.fresh_order.len();
            POOL + fresh
        } else {
            self.draws.gen_range(0..POOL)
        };
        let variant = self.variants.deal(&mut self.draws);
        Req { image, variant }
    }
}

/// What direct in-process inference says one reply must contain.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The registry key the reply must name.
    pub model: String,
    /// `predict_batch`'s class.
    pub prediction: usize,
    /// `infer_batch`'s logits.
    pub logits: Vec<f32>,
}

/// A workload's generated inputs: images, pre-encoded requests and expectations.
pub struct Inputs {
    /// Pool images, then fresh-pool images.
    pub images: Vec<Matrix>,
    /// `expected[variant][image]`.
    pub expected: Vec<Vec<Expected>>,
    /// `encoded[variant][image]`: the whole HTTP request, head and body.
    pub encoded: Vec<Vec<Vec<u8>>>,
}

impl Inputs {
    /// Generates the images from the seed, computes every expectation by direct
    /// inference, and pre-encodes every request. Inference runs a chunk of
    /// images at a time and keeps only the logits, so the token matrices of the
    /// whole pool are never alive at once.
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut pixels = rng(seed, Stream::Pixels);
        let side = spec.image_size;
        let images: Vec<Matrix> = (0..POOL + spec.fresh_pool)
            .map(|_| init::uniform(&mut pixels, side, side, 0.0, 1.0))
            .collect();
        let name = model_name(spec);
        let expected = build_models(spec, seed, &images)
            .iter()
            .map(|model| {
                let key = format!("{name}:{}", model.variant().label());
                let mut expected = Vec::with_capacity(images.len());
                for chunk in images.chunks(EXPECTATION_CHUNK) {
                    let predictions = model.predict_batch(chunk);
                    for (out, prediction) in model.infer_batch(chunk).into_iter().zip(predictions) {
                        expected.push(Expected {
                            model: key.clone(),
                            prediction,
                            logits: out.logits.row(0).to_vec(),
                        });
                    }
                }
                expected
            })
            .collect();
        let encoded = spec
            .variants
            .iter()
            .map(|(label, _)| {
                let key = format!("{name}:{label}");
                images
                    .iter()
                    .map(|image| encode_request(&key, image, false))
                    .collect()
            })
            .collect();
        Self {
            images,
            expected,
            encoded,
        }
    }
}

/// Images whose expectations are computed together.
const EXPECTATION_CHUNK: usize = 16;

/// One complete binary-encoded `POST /v1/infer` HTTP request for `image`,
/// optionally asking for the server's spans.
pub fn encode_request(model_key: &str, image: &Matrix, trace: bool) -> Vec<u8> {
    let opts = InferOptions {
        trace,
        ..InferOptions::default()
    };
    let body = protocol::encode_binary_infer(model_key, image, &opts);
    let mut wire = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: perfbench\r\nContent-Type: {BINARY_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    wire
}

/// The workload's models, one per variant in [`Spec::variants`] order. The int8
/// variant is calibrated on the head of the image pool.
pub fn build_models(spec: &Spec, seed: u64, images: &[Matrix]) -> Vec<VisionTransformer> {
    let cfg = model_config(spec.image_size);
    let base = VisionTransformer::new(
        &mut rng(seed, Stream::Weights),
        cfg,
        AttentionVariant::Taylor,
    );
    spec.variants
        .iter()
        .map(|(label, _)| {
            let mut model = base.clone();
            match *label {
                "taylor" => {}
                "softmax" => model.set_variant(AttentionVariant::Softmax),
                "int8" => {
                    model.calibrate_int8(&images[..CALIBRATION_IMAGES.min(images.len())]);
                }
                other => unreachable!("no variant {other}"),
            }
            model
        })
        .collect()
}

/// The running servers of one workload.
pub struct Servers {
    /// The engine.
    pub engine: Server,
    /// The gateway in front of it, on `gateway-hot`.
    pub gateway: Option<Gateway>,
}

impl Servers {
    /// Where the load goes: the gateway when there is one, else the engine.
    pub fn front_addr(&self) -> SocketAddr {
        self.gateway
            .as_ref()
            .map_or_else(|| self.engine.local_addr(), Gateway::local_addr)
    }

    /// Stops the gateway, then the engine.
    pub fn shutdown(self) {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        self.engine.shutdown();
    }
}

/// Trace policy for one set of servers: off, or every request retained.
fn trace_config(traced: bool) -> trace::TraceConfig {
    trace::TraceConfig {
        sample: Some(if traced { 1.0 } else { 0.0 }),
        ring_capacity: if traced { 16_384 } else { 64 },
    }
}

/// Builds the models, loads the registry, starts the engine (and the gateway) and
/// waits until every server answers `/healthz` — a gateway only once it reports
/// its backend healthy. Returns the servers and the seconds that took.
pub fn boot(spec: &Spec, seed: u64, images: &[Matrix], traced: bool) -> (Servers, f64) {
    let started = Instant::now();
    let mut registry = ModelRegistry::new();
    let name = model_name(spec);
    for model in build_models(spec, seed, images) {
        registry.register(&name, model).expect("valid model name");
    }
    let engine = Server::start(
        ServerConfig {
            trace: trace_config(traced),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("start the engine on an ephemeral port");
    let gateway = spec.via_gateway.then(|| {
        Gateway::start(
            GatewayConfig {
                trace: trace_config(traced),
                ..GatewayConfig::default()
            },
            &[engine.local_addr()],
        )
        .expect("start the gateway on an ephemeral port")
    });
    wait_healthy(engine.local_addr());
    if let Some(gateway) = &gateway {
        wait_healthy(gateway.local_addr());
    }
    let setup_s = started.elapsed().as_secs_f64();
    (Servers { engine, gateway }, setup_s)
}

/// Polls `GET /healthz` until it answers 200 with status `ok` (a gateway says
/// `ok` only when every backend is admitted).
fn wait_healthy(addr: SocketAddr) {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let healthy = ServeClient::connect(addr)
            .ok()
            .and_then(|mut client| client.get("/healthz").ok())
            .is_some_and(|(status, body)| {
                status == 200 && body.get("status").and_then(|s| s.as_str()) == Some("ok")
            });
        if healthy {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "server at {addr} never became healthy"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(spec: Spec, seed: u64, n: usize) -> Vec<Req> {
        let mut stream = RequestStream::new(spec, seed);
        (0..n).map(|_| stream.next_req()).collect()
    }

    #[test]
    fn one_seed_gives_one_request_sequence() {
        for spec in WORKLOADS {
            assert_eq!(draw(spec, 7, 500), draw(spec, 7, 500), "{}", spec.name);
            assert_ne!(draw(spec, 7, 500), draw(spec, 8, 500), "{}", spec.name);
        }
    }

    #[test]
    fn one_seed_gives_one_image_pool() {
        let spec = spec("gateway-hot").unwrap();
        let pixels = |seed| {
            init::uniform(
                &mut rng(seed, Stream::Pixels),
                spec.image_size,
                spec.image_size,
                0.0,
                1.0,
            )
        };
        assert_eq!(pixels(3), pixels(3));
        assert_ne!(pixels(3), pixels(4));
    }

    #[test]
    fn draws_follow_the_declared_shares() {
        // Every block holds the declared counts exactly.
        let hot = spec("gateway-hot").unwrap();
        for block in draw(hot, 1, 20 * 50).chunks(hot.fresh_every) {
            assert_eq!(block.iter().filter(|r| r.image >= POOL).count(), 1);
        }
        let hires = spec("hires-1024").unwrap();
        let block_len: usize = hires.variants.iter().map(|v| v.1).sum();
        for block in draw(hires, 1, block_len * 50).chunks(block_len) {
            for (v, &(_, weight)) in hires.variants.iter().enumerate() {
                assert_eq!(block.iter().filter(|r| r.variant == v).count(), weight);
            }
        }
    }

    #[test]
    fn fresh_images_cycle_through_the_whole_fresh_pool() {
        let hot = spec("gateway-hot").unwrap();
        let mut stream = RequestStream::new(hot, 5);
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < hot.fresh_pool {
            let req = stream.next_req();
            if req.image >= POOL {
                assert!(
                    seen.insert(req.image),
                    "a fresh image repeated before the cycle ended"
                );
            }
        }
        assert_eq!(seen.len(), hot.fresh_pool);
    }

    #[test]
    fn workload_shapes_match_their_names() {
        assert_eq!(
            model_config(spec("gateway-hot").unwrap().image_size).tokens(),
            196
        );
        assert_eq!(
            model_config(spec("hires-1024").unwrap().image_size).tokens(),
            1024
        );
    }
}
