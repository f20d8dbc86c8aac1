//! Per-layer timers: each layer's public entry point, called from outside with
//! warm workspaces on the served shapes (embed 32, 4 heads of d = 8, MLP width 64).

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::json;
use vitality_attention::{mean_center_keys, Int8Calibration};
use vitality_gateway::{image_hash, CacheConfig, ResponseCache};
use vitality_nn::{Activation, ClassificationHead, LayerNorm, Linear, Mlp, PatchEmbed};
use vitality_serve::http::{HttpParser, ParseStatus};
use vitality_serve::protocol;
use vitality_serve::InferReply;
use vitality_tensor::{init, Matrix, Workspace};
use vitality_vit::{AttentionVariant, MultiHeadAttention, TransformerBlock, VisionTransformer};

use crate::stats::median;
use crate::workload::{self, model_config, Stream};

/// Time one batch of calls must take at least, so timer overhead stays small.
const MIN_BATCH: Duration = Duration::from_micros(500);

/// Batches measured per timer at least.
const MIN_BATCHES: usize = 5;

/// Median microseconds per call of `f`: doubles the calls per batch until one
/// batch takes [`MIN_BATCH`], then times batches until `budget` is spent (and at
/// least [`MIN_BATCHES`]) and takes the median of the per-call means.
pub fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut reps = 1u32;
    loop {
        let started = Instant::now();
        for _ in 0..reps {
            f();
        }
        if started.elapsed() >= MIN_BATCH || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let mut per_call = Vec::new();
    let started = Instant::now();
    while per_call.len() < MIN_BATCHES || started.elapsed() < budget {
        let batch = Instant::now();
        for _ in 0..reps {
            f();
        }
        per_call.push(batch.elapsed().as_secs_f64() * 1e6 / f64::from(reps));
    }
    median(&per_call).expect("at least one batch")
}

/// `VisionTransformer::infer_with` on a warm workspace, outputs recycled.
fn time_infer(budget: Duration, model: &VisionTransformer, image: &Matrix) -> f64 {
    let mut ws = Workspace::new();
    time_us(budget, || {
        let out = model.infer_with(black_box(image), &mut ws);
        black_box(out.logits.get(0, 0));
        ws.recycle(out.logits);
        ws.recycle(out.tokens);
    })
}

/// One attention head of `n` tokens, d = 8, through the variant's kernel.
fn time_kernel(
    budget: Duration,
    variant: AttentionVariant,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) -> f64 {
    let kernel = variant.kernel();
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(q.rows(), v.cols());
    time_us(budget, || {
        kernel.compute_into(black_box(q), black_box(k), black_box(v), &mut ws, &mut out);
        black_box(out.get(0, 0));
    })
}

fn absmax(m: &Matrix) -> f32 {
    m.as_slice().iter().fold(0.0f32, |acc, x| acc.max(x.abs()))
}

/// Runs every layer timer. Returns `(metric name, value)` in the order
/// `BENCHMARK.json` lists the per-layer metrics.
pub fn measure(seed: u64, budget: Duration) -> Vec<(&'static str, f64)> {
    let mut rng = workload::rng(seed, Stream::Layers);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let uniform = |rng: &mut _, rows, cols| init::uniform(rng, rows, cols, -1.0, 1.0);

    out.push((
        "rayon.join_noop_us",
        time_us(budget, || {
            black_box(rayon::join(|| black_box(1u32), || black_box(2u32)));
        }),
    ));

    // Tensor: the QKV/out projection GEMM at n = 196 and the MLP fc1 GEMM at n = 1024.
    let x196 = uniform(&mut rng, 196, 32);
    let x1024 = uniform(&mut rng, 1024, 32);
    let w32 = uniform(&mut rng, 32, 32);
    let w64 = uniform(&mut rng, 32, 64);
    let mut y196 = Matrix::zeros(196, 32);
    let mut y1024 = Matrix::zeros(1024, 64);
    out.push((
        "tensor.gemm_196x32x32_us",
        time_us(budget, || x196.matmul_into(black_box(&w32), &mut y196)),
    ));
    out.push((
        "tensor.gemm_1024x32x64_us",
        time_us(budget, || x1024.matmul_into(black_box(&w64), &mut y1024)),
    ));

    // Attention kernels: one head, d = 8.
    let head = |rng: &mut _, n| (uniform(rng, n, 8), uniform(rng, n, 8), uniform(rng, n, 8));
    let (q196, k196, v196) = head(&mut rng, 196);
    let (q1024, k1024, v1024) = head(&mut rng, 1024);
    let int8 = AttentionVariant::Int8Taylor {
        calibration: Int8Calibration::Fixed {
            q_absmax: absmax(&q1024),
            k_absmax: absmax(&mean_center_keys(&k1024)),
            v_absmax: absmax(&v1024),
        },
    };
    let taylor_196 = time_kernel(budget, AttentionVariant::Taylor, &q196, &k196, &v196);
    out.push(("attention.taylor_196_us", taylor_196));
    out.push((
        "attention.taylor_1024_us",
        time_kernel(budget, AttentionVariant::Taylor, &q1024, &k1024, &v1024),
    ));
    out.push((
        "attention.int8_1024_us",
        time_kernel(budget, int8, &q1024, &k1024, &v1024),
    ));
    out.push((
        "attention.softmax_1024_us",
        time_kernel(budget, AttentionVariant::Softmax, &q1024, &k1024, &v1024),
    ));

    // NN layers at n = 196 (and the MLP at n = 1024).
    let mut ws = Workspace::new();
    let image56 = init::uniform(&mut rng, 56, 56, 0.0, 1.0);
    let image128 = init::uniform(&mut rng, 128, 128, 0.0, 1.0);
    let embed = PatchEmbed::new(&mut rng, 4, 196, 32);
    let norm = LayerNorm::new(32);
    let linear = Linear::new(&mut rng, 32, 32, true);
    let mlp = Mlp::new(&mut rng, 32, 64, Activation::Gelu);
    let classifier = ClassificationHead::new(&mut rng, 32, 8);
    let mut z1024 = Matrix::zeros(1024, 32);
    let mut logits = Matrix::zeros(1, 8);
    let embed_us = time_us(budget, || {
        embed.infer_into(black_box(&image56), &mut ws, &mut y196)
    });
    out.push(("nn.embed_196_us", embed_us));
    out.push((
        "nn.layernorm_196_us",
        time_us(budget, || norm.infer_into(black_box(&x196), &mut y196)),
    ));
    let linear_us = time_us(budget, || linear.infer_into(black_box(&x196), &mut y196));
    out.push(("nn.linear_196_us", linear_us));
    out.push((
        "nn.mlp_196_us",
        time_us(budget, || {
            mlp.infer_into(black_box(&x196), &mut ws, &mut y196)
        }),
    ));
    out.push((
        "nn.mlp_1024_us",
        time_us(budget, || {
            mlp.infer_into(black_box(&x1024), &mut ws, &mut z1024)
        }),
    ));
    let head_us = time_us(budget, || {
        classifier.infer_into(black_box(&x196), &mut ws, &mut logits)
    });
    out.push(("nn.head_196_us", head_us));

    // ViT modules and whole-model inference.
    let mha = MultiHeadAttention::new(&mut rng, 32, 4, AttentionVariant::Taylor);
    let mha_us = time_us(budget, || {
        mha.infer_into(black_box(&x196), &mut ws, &mut y196)
    });
    out.push(("vit.mha_taylor_196_us", mha_us));
    let block = TransformerBlock::new(&mut rng, 32, 4, 2.0, AttentionVariant::Taylor);
    let mut tokens = x196.clone();
    // Each call starts from the same tokens; the 25 KB copy is part of the figure.
    let block_us = time_us(budget, || {
        tokens.as_mut_slice().copy_from_slice(x196.as_slice());
        block.infer_inplace(&mut tokens, &mut ws);
        black_box(tokens.get(0, 0));
    });
    out.push(("vit.block_taylor_196_us", block_us));
    let vit196 = VisionTransformer::new(&mut rng, model_config(56), AttentionVariant::Taylor);
    let infer_196 = time_infer(budget, &vit196, &image56);
    out.push(("vit.infer_taylor_196_us", infer_196));
    let taylor1024 = VisionTransformer::new(&mut rng, model_config(128), AttentionVariant::Taylor);
    let mut int81024 = taylor1024.clone();
    int81024.calibrate_int8(std::slice::from_ref(&image128));
    let mut softmax1024 = taylor1024.clone();
    softmax1024.set_variant(AttentionVariant::Softmax);
    out.push((
        "vit.infer_taylor_1024_us",
        time_infer(budget, &taylor1024, &image128),
    ));
    out.push((
        "vit.infer_int8_1024_us",
        time_infer(budget, &int81024, &image128),
    ));
    out.push((
        "vit.infer_softmax_1024_us",
        time_infer(budget, &softmax1024, &image128),
    ));
    out.push((
        "vit.mha_copy_196_us",
        mha_us - 4.0 * taylor_196 - 4.0 * linear_us,
    ));
    let layers = vit196.depth() as f64;
    out.push((
        "vit.layer_sum_ratio",
        (embed_us + layers * block_us + head_us) / infer_196,
    ));

    // Wire protocol.
    let json_text = protocol::infer_request_json("vit196:taylor", &image56).to_json();
    out.push((
        "protocol.json_encode_196_us",
        time_us(budget, || {
            black_box(protocol::infer_request_json("vit196:taylor", black_box(&image56)).to_json());
        }),
    ));
    out.push((
        "protocol.json_parse_196_us",
        time_us(budget, || {
            let parsed = json::parse(black_box(&json_text)).expect("valid request JSON");
            black_box(protocol::parse_infer_request(&parsed).expect("valid request"));
        }),
    ));
    let opts = protocol::InferOptions::default();
    for (name, image) in [
        ("protocol.binary_decode_196_us", &image56),
        ("protocol.binary_decode_1024_us", &image128),
    ] {
        let wire = protocol::encode_binary_infer("vit:taylor", image, &opts);
        out.push((
            name,
            time_us(budget, || {
                black_box(protocol::decode_binary_infer(black_box(&wire)).expect("valid body"));
            }),
        ));
    }
    let reply = InferReply {
        model: "vit196:taylor".to_string(),
        prediction: 3,
        logits: uniform(&mut rng, 1, 8).as_slice().to_vec(),
        batch_size: 4,
        queue_us: 1234,
    };
    let reply_text = protocol::infer_reply_json(&reply).to_json();
    out.push((
        "protocol.reply_encode_us",
        time_us(budget, || {
            black_box(protocol::infer_reply_json(black_box(&reply)).to_json());
        }),
    ));
    out.push((
        "protocol.reply_parse_us",
        time_us(budget, || {
            let parsed = json::parse(black_box(&reply_text)).expect("valid reply JSON");
            black_box(protocol::parse_infer_reply(&parsed).expect("valid reply"));
        }),
    ));

    // HTTP framing of one binary request at n = 196, as gateway-hot sends it.
    let wire = workload::encode_request("vit196:taylor", &image56, false);
    let mut parser = HttpParser::new();
    out.push((
        "http.request_parse_196_us",
        time_us(budget, || {
            parser.feed(black_box(&wire));
            let status = parser.poll(usize::MAX).expect("valid request framing");
            assert_eq!(status, ParseStatus::Message);
            black_box(parser.body().len());
            parser.advance();
        }),
    ));

    // Gateway response cache at its default capacity and shard count.
    let defaults = CacheConfig::default();
    let cache = ResponseCache::new(defaults.capacity, defaults.ttl, defaults.shards);
    let key_hash = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..defaults.capacity as u64 {
        cache.put("vit196:taylor", key_hash(i), reply.clone());
    }
    let mut next = 0u64;
    out.push((
        "gateway.cache_get_us",
        time_us(budget, || {
            next = (next + 1) % defaults.capacity as u64;
            black_box(
                cache
                    .get("vit196:taylor", key_hash(next))
                    .expect("a filled key"),
            );
        }),
    ));
    // New keys into a full cache: every put evicts, as a gateway miss does.
    let mut fresh = defaults.capacity as u64;
    out.push((
        "gateway.cache_put_us",
        time_us(budget, || {
            fresh += 1;
            cache.put("vit196:taylor", key_hash(fresh), reply.clone());
        }),
    ));
    out.push((
        "gateway.image_hash_196_us",
        time_us(budget, || {
            black_box(image_hash(black_box(&image56)));
        }),
    ));
    out
}
