//! The [`AttentionKernel`] trait: the allocation-free inference interface every served
//! attention variant implements, plus the fused unified low-rank + sparse kernel.
//!
//! [`AttentionMechanism`](crate::AttentionMechanism) is the *analytical* interface — a
//! convenient `compute` returning a fresh matrix plus an op-count model, used by the
//! taxonomy tables and the accelerator simulators. `AttentionKernel` is the *serving*
//! interface: implementations write into a caller-provided output buffer and draw every
//! intermediate from a [`Workspace`], so a warm serving process runs attention with zero
//! per-call heap traffic. The ViT substrate (`vitality-vit`) builds one boxed kernel per
//! model from its `AttentionVariant` and reuses it across every layer, head and request.
//!
//! # How to add a variant
//!
//! Implement the trait for your mechanism, then add one arm to
//! `AttentionVariant::kernel()` in `vitality-vit` **and one entry to
//! `AttentionVariant::all()`** (and, to serve it, nothing else — the registry keys
//! models by `name:<label>` automatically). The `all()` entry is what puts the new
//! kernel under the **kernel conformance suite** (`tests/kernel_conformance.rs`), the
//! acceptance gate every variant must pass — CI runs it as a named step. It asserts,
//! with zero per-variant test code:
//!
//! * `compute_into` matches the variant's traced/unfused reference within its
//!   documented tolerance;
//! * `label()` is unique and `:`-free (it becomes the registry key half and the
//!   `/metrics` tag);
//! * workspace reuse is bit-exact and allocation-free on a warm pool;
//! * outputs stay finite on adversarial inputs (all-zero Q/K/V, large-magnitude
//!   logits, `n = 1`);
//! * `forward_train` agrees with `compute` through the multi-head module.
//!
//! ```
//! use vitality_attention::kernel::AttentionKernel;
//! use vitality_attention::opcount::OpCounts;
//! use vitality_autograd::Var;
//! use vitality_tensor::{Matrix, Workspace};
//!
//! /// Attention that ignores the keys and averages the values (a toy example).
//! #[derive(Debug)]
//! struct MeanPoolAttention;
//!
//! impl AttentionKernel for MeanPoolAttention {
//!     fn label(&self) -> &'static str {
//!         "mean-pool"
//!     }
//!
//!     fn compute_into(
//!         &self,
//!         q: &Matrix,
//!         _k: &Matrix,
//!         v: &Matrix,
//!         _ws: &mut Workspace,
//!         out: &mut Matrix,
//!     ) {
//!         let mean = v.col_mean();
//!         for r in 0..q.rows() {
//!             out.row_mut(r).copy_from_slice(mean.row(0));
//!         }
//!     }
//!
//!     fn op_counts(&self, n: usize, d: usize) -> OpCounts {
//!         OpCounts::new(0, (n * d) as u64, d as u64, 0)
//!     }
//!
//!     fn forward_train(&self, q: &Var, _k: &Var, v: &Var) -> Var {
//!         v.col_mean().broadcast_row_to(q.shape().0)
//!     }
//! }
//!
//! let kernel = MeanPoolAttention;
//! let (q, k, v) = (Matrix::ones(4, 2), Matrix::ones(4, 2), Matrix::ones(4, 2));
//! assert!(kernel.compute(&q, &k, &v).approx_eq(&Matrix::ones(4, 2), 1e-6));
//! ```

use crate::opcount::OpCounts;
use crate::softmax::SoftmaxAttention;
use crate::sparse::{quantize_symmetric_into, SangerSparseAttention};
use crate::taylor::TaylorAttention;
use crate::unified::UnifiedLowRankSparseAttention;
use crate::{validate_qkv, AttentionMechanism};
use std::fmt;
use vitality_autograd::Var;
use vitality_tensor::backend::Operand;
use vitality_tensor::{matmul_backend, simd, MatmulBackend, Matrix, Workspace};

/// Query rows processed per block by the workspace kernels — bounds the scratch slice
/// of any `n x n` interaction to `ROW_BLOCK x n` regardless of the token count.
const ROW_BLOCK: usize = 64;

/// A single-head attention kernel with an allocation-free inference entry point.
///
/// Implementations are built **once** per model (from
/// `vitality_vit::AttentionVariant::kernel()`) and shared behind an
/// `Arc<dyn AttentionKernel>` across layers, worker threads and requests — which is why
/// the trait requires `Send + Sync` and `compute_into` takes `&self`. See the
/// [module documentation](self) for a complete "add a variant" example.
pub trait AttentionKernel: Send + Sync + fmt::Debug {
    /// Stable variant label: the `variant` half of the serving registry's
    /// `name:variant` keys and the tag on per-variant `/metrics` counters.
    fn label(&self) -> &'static str;

    /// Computes the per-head attention score into `out` (`q.rows() x v.cols()`),
    /// drawing every intermediate from `ws`. `out` is overwritten.
    ///
    /// # Panics
    ///
    /// Implementations panic when the `(Q, K, V)` shapes are inconsistent or `out` has
    /// the wrong shape.
    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    );

    /// Scalar-operation model for one head with `n` tokens and `d` feature dimensions
    /// (the hook the op-count tables and the accelerator simulators consume).
    fn op_counts(&self, n: usize, d: usize) -> OpCounts;

    /// Training-time forward pass on the autograd tape.
    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var;

    /// Fraction of non-zero entries in the training-time sparse component (the Fig. 14
    /// probe); zero for variants without a sparse component.
    fn sparse_occupancy(&self, _q: &Matrix, _k: &Matrix) -> f32 {
        0.0
    }

    /// Convenience wrapper allocating the output (and a throwaway workspace); hot paths
    /// should call [`AttentionKernel::compute_into`] instead.
    fn compute(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(q.rows(), v.cols());
        self.compute_into(q, k, v, &mut ws, &mut out);
        out
    }
}

/// Asserts the `(Q, K, V, out)` shape contract shared by every kernel.
pub(crate) fn validate_out(q: &Matrix, k: &Matrix, v: &Matrix, out: &Matrix) {
    validate_qkv(q, k, v);
    assert_eq!(
        out.shape(),
        (q.rows(), v.cols()),
        "attention kernel output must be q.rows() x v.cols()"
    );
}

// ---------------------------------------------------------------------------
// Shared fused Algorithm-1 passes (Taylor kernel and the unified kernel's
// low-rank half run the *same* arithmetic — one implementation keeps them in
// lockstep, which the unified divergence gate depends on)
// ---------------------------------------------------------------------------

/// Pass 1: fills `k_bar` with the column (token-wise) mean of `K`, or zeroes when
/// centring is disabled so pass 2 can subtract unconditionally.
pub(crate) fn fill_k_bar(k: &Matrix, mean_center: bool, k_bar: &mut [f32]) {
    k_bar.fill(0.0);
    let n = k.rows();
    if !mean_center || n == 0 {
        return;
    }
    for r in 0..n {
        for (acc, &kv) in k_bar.iter_mut().zip(k.row(r)) {
            *acc += kv;
        }
    }
    let inv_n = 1.0 / n as f32;
    for acc in k_bar.iter_mut() {
        *acc *= inv_n;
    }
}

/// Fills `k_hat` (`n x d_k`, row-major) with the mean-centred keys `K - 1 \bar{K}`.
pub(crate) fn center_keys_into(k: &Matrix, k_bar: &[f32], k_hat: &mut [f32]) {
    let d_k = k.cols();
    for (r, row) in k_hat.chunks_exact_mut(d_k).enumerate() {
        for ((kh, &kv), &kb) in row.iter_mut().zip(k.row(r)).zip(k_bar) {
            *kh = kv - kb;
        }
    }
}

/// Pass 2: the Algorithm-1 aggregates from the materialised centred keys —
/// `G = \hat{K}^T V` through the backend GEMM (so the fused kernels ride the same
/// SIMD microkernels as the traced pipeline), plus `\hat{k}_{sum}` and `v_{sum}` in
/// one cheap `O(nd)` sweep.
pub(crate) fn taylor_aggregates_from_centred(
    backend: MatmulBackend,
    k_hat: &[f32],
    v: &Matrix,
    g: &mut [f32],
    k_sum: &mut [f32],
    v_sum: &mut [f32],
) {
    let n = v.rows();
    let d_k = k_sum.len();
    let d_v = v.cols();
    for row in k_hat.chunks_exact(d_k) {
        for (ks, &kh) in k_sum.iter_mut().zip(row) {
            *ks += kh;
        }
    }
    for r in 0..n {
        for (vs, &vv) in v_sum.iter_mut().zip(v.row(r)) {
            *vs += vv;
        }
    }
    backend.gemm_into(
        g,
        d_k,
        n,
        d_v,
        Operand::transposed(k_hat, d_k),
        Operand::row_major(v.as_slice(), d_v),
    );
}

/// Pass 3: Steps 4–6 fused over every query row,
/// `out_i = (sqrt(d) v_sum + q_i G) / (n sqrt(d) + q_i \hat{k}_{sum}^T)`.
///
/// The `Q G` product — the `O(n d²)` bulk of the pass — runs through the backend
/// GEMM; the epilogue (denominator dot, `v_sum` shift, normalisation) is one cheap
/// `O(nd)` sweep folded over the product rows. `denoms` (length `n_q`) receives each
/// row's Taylor denominator `t_D = n sqrt(d) + q_i \hat{k}_{sum}^T`, which the
/// unified kernels reuse for the weak map's normaliser.
// The argument list is the full Algorithm-1 aggregate set plus the two output
// buffers; bundling them into a struct would just move the same ten names one
// level down for the three call sites.
#[allow(clippy::too_many_arguments)]
pub(crate) fn low_rank_outputs(
    backend: MatmulBackend,
    q: &[f32],
    d_k: usize,
    g: &[f32],
    k_sum: &[f32],
    v_sum: &[f32],
    sqrt_d: f32,
    n_sqrt_d: f32,
    out: &mut [f32],
    denoms: &mut [f32],
) {
    let d_v = v_sum.len();
    let n_q = denoms.len();
    debug_assert_eq!(q.len(), n_q * d_k);
    debug_assert_eq!(out.len(), n_q * d_v);
    backend.gemm_into(
        out,
        n_q,
        d_k,
        d_v,
        Operand::row_major(q, d_k),
        Operand::row_major(g, d_v),
    );
    for ((q_row, out_row), denom) in q
        .chunks_exact(d_k)
        .zip(out.chunks_exact_mut(d_v))
        .zip(denoms.iter_mut())
    {
        let mut d = n_sqrt_d;
        for (&qv, &ks) in q_row.iter().zip(k_sum) {
            d += qv * ks;
        }
        let inv = 1.0 / d;
        for (o, &vs) in out_row.iter_mut().zip(v_sum) {
            *o = (*o + sqrt_d * vs) * inv;
        }
        *denom = d;
    }
}

/// Applies the Sanger mask rule to one row of raw quantized prediction logits:
/// scale by `1/sqrt(d)`, softmax in place, threshold the normalised probabilities, and
/// fall back to the argmax when nothing survives — the same rule
/// [`SangerSparseAttention::prediction_mask`] applies densely, shared by the fused
/// unified kernel and its int8 sibling so their surviving sets cannot drift apart.
///
/// `p_row` is left holding the (unnormalised) exponentials; `surviving` is cleared and
/// refilled with the surviving column indices in ascending order.
pub(crate) fn sanger_row_survivors(
    p_row: &mut [f32],
    inv_sqrt_d: f32,
    threshold: f32,
    surviving: &mut Vec<usize>,
) {
    surviving.clear();
    let mut p_max = f32::NEG_INFINITY;
    for p in p_row.iter_mut() {
        *p *= inv_sqrt_d;
        p_max = p_max.max(*p);
    }
    let mut p_sum = 0.0f32;
    for p in p_row.iter_mut() {
        *p = (*p - p_max).exp();
        p_sum += *p;
    }
    if p_sum > 0.0 {
        for (j, p) in p_row.iter().enumerate() {
            if *p / p_sum >= threshold {
                surviving.push(j);
            }
        }
    }
    if surviving.is_empty() && !p_row.is_empty() {
        // Argmax fallback over the *normalised* probabilities, first strict maximum —
        // quantized logits produce exact probability ties after rounding, so this must
        // replicate `prediction_mask`'s tie-breaking bit for bit.
        let (mut best_j, mut best) = (0, f32::NEG_INFINITY);
        for (j, p) in p_row.iter().enumerate() {
            let prob = if p_sum > 0.0 { *p / p_sum } else { *p };
            if prob > best {
                best = prob;
                best_j = j;
            }
        }
        surviving.push(best_j);
    }
}

// ---------------------------------------------------------------------------
// Softmax baseline
// ---------------------------------------------------------------------------

impl AttentionKernel for SoftmaxAttention {
    fn label(&self) -> &'static str {
        "softmax"
    }

    /// Blockwise fused softmax attention over three vector sweeps of
    /// [`vitality_tensor::simd`]. `K` is transposed once per call into a `d × n`
    /// workspace buffer; then, [`ROW_BLOCK`] query rows at a time:
    ///
    /// 1. [`scaled_logits`](simd::scaled_logits) writes the block's `Q Kᵀ / sqrt(d)`
    ///    logits into the probability scratch;
    /// 2. [`shifted_exp_sum`](simd::shifted_exp_sum) turns each row into
    ///    `exp(x − max)` and returns its sum;
    /// 3. [`scaled_pv`](simd::scaled_pv) multiplies the unnormalised probabilities by
    ///    `V` and folds each row's `1/sum` into the output store.
    ///
    /// Every sweep dispatches to AVX2 at runtime and otherwise runs its scalar twin; the
    /// matmul backend setting does not apply here. The sequential, allocation-free
    /// sibling of [`fused_softmax_attention`](crate::fused_softmax_attention), which
    /// stays the libm-`exp` reference (parallelism belongs to the caller's per-image
    /// axis).
    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    ) {
        validate_out(q, k, v, out);
        let n = k.rows();
        let d = q.cols();
        let d_v = v.cols();
        let n_q = q.rows();
        if n == 0 {
            // No keys to attend to: every row's probability mass is empty.
            out.as_mut_slice().fill(0.0);
            return;
        }
        let scale = 1.0 / (d as f32).sqrt();
        let mut kt = ws.take_vec(d * n);
        for (j, k_row) in k.as_slice().chunks_exact(d).enumerate() {
            for (c, &kv) in k_row.iter().enumerate() {
                kt[c * n + j] = kv;
            }
        }
        let bs_max = ROW_BLOCK.min(n_q.max(1));
        let mut probs = ws.take_vec(bs_max * n);
        let mut inv_sums = [0.0f32; ROW_BLOCK];
        for lo in (0..n_q).step_by(ROW_BLOCK) {
            let hi = (lo + ROW_BLOCK).min(n_q);
            let block = &mut probs[..(hi - lo) * n];
            simd::scaled_logits(&q.as_slice()[lo * d..hi * d], d, &kt, scale, block);
            for (row, inv) in block.chunks_exact_mut(n).zip(inv_sums.iter_mut()) {
                let sum = simd::shifted_exp_sum(row);
                *inv = if sum > 0.0 { 1.0 / sum } else { 0.0 };
            }
            simd::scaled_pv(
                block,
                v.as_slice(),
                d_v,
                &inv_sums[..hi - lo],
                &mut out.as_mut_slice()[lo * d_v..hi * d_v],
            );
        }
        ws.recycle_vec(kt);
        ws.recycle_vec(probs);
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        AttentionMechanism::op_counts(self, n, d)
    }

    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        SoftmaxAttention::forward_train(self, q, k, v)
    }
}

// ---------------------------------------------------------------------------
// Linear Taylor attention
// ---------------------------------------------------------------------------

impl AttentionKernel for TaylorAttention {
    fn label(&self) -> &'static str {
        if self.mean_centering() {
            "taylor"
        } else {
            "taylor-no-centering"
        }
    }

    /// The fused three-pass Algorithm-1 kernel of
    /// [`TaylorAttention::compute_fused`], restated over workspace scratch: one
    /// reduction for `\bar{K}`, the `(G, \hat{k}_{sum}, v_{sum})` aggregates with
    /// `G = \hat{K}^T V` on the backend GEMM, and the `Q G` output pass on the same
    /// GEMM with Steps 4–6's epilogue folded over the product rows.
    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    ) {
        validate_out(q, k, v, out);
        let n = k.rows();
        let d_k = k.cols();
        let d_v = v.cols();
        let n_q = q.rows();
        let sqrt_d = (q.cols() as f32).sqrt();
        let backend = matmul_backend();

        let mut k_bar = ws.take_vec(d_k);
        fill_k_bar(k, self.mean_centering(), &mut k_bar);
        let mut k_hat = ws.take_vec(n * d_k);
        center_keys_into(k, &k_bar, &mut k_hat);

        let mut g = ws.take_vec(d_k * d_v);
        let mut k_sum = ws.take_vec(d_k);
        let mut v_sum = ws.take_vec(d_v);
        taylor_aggregates_from_centred(backend, &k_hat, v, &mut g, &mut k_sum, &mut v_sum);

        let n_sqrt_d = n as f32 * sqrt_d;
        let mut denoms = ws.take_vec(n_q);
        low_rank_outputs(
            backend,
            q.as_slice(),
            d_k,
            &g,
            &k_sum,
            &v_sum,
            sqrt_d,
            n_sqrt_d,
            out.as_mut_slice(),
            &mut denoms,
        );

        ws.recycle_vec(k_bar);
        ws.recycle_vec(k_hat);
        ws.recycle_vec(g);
        ws.recycle_vec(k_sum);
        ws.recycle_vec(v_sum);
        ws.recycle_vec(denoms);
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        AttentionMechanism::op_counts(self, n, d)
    }

    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        TaylorAttention::forward_train(self, q, k, v)
    }
}

// ---------------------------------------------------------------------------
// Sanger-style sparse attention
// ---------------------------------------------------------------------------

impl AttentionKernel for SangerSparseAttention {
    fn label(&self) -> &'static str {
        "sparse"
    }

    /// Delegates to the allocating [`AttentionMechanism::compute`] pipeline: the SPARSE
    /// baseline is a training/ablation arm, not a serving hot path, so it trades
    /// workspace discipline for reuse of the audited mask/renormalise code.
    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        _ws: &mut Workspace,
        out: &mut Matrix,
    ) {
        validate_out(q, k, v, out);
        out.copy_from(&AttentionMechanism::compute(self, q, k, v));
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        AttentionMechanism::op_counts(self, n, d)
    }

    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        SangerSparseAttention::forward_train(self, q, k, v)
    }

    fn sparse_occupancy(&self, q: &Matrix, k: &Matrix) -> f32 {
        self.prediction_mask(q, &crate::taylor::mean_center_keys(k))
            .sparsity()
            .mul_add(-1.0, 1.0)
    }
}

// ---------------------------------------------------------------------------
// Fused unified low-rank + sparse kernel
// ---------------------------------------------------------------------------

/// The fused serving kernel for the paper's unified low-rank + sparse attention.
///
/// [`UnifiedLowRankSparseAttention::compute`] is the traced reference: it materialises
/// the exact `n x n` softmax map, the weak Taylor map, the prediction mask and the
/// masked strong component before a zero-skipping `n x n` map-times-`V` product. This
/// kernel produces the same score without any `n x n` intermediate:
///
/// 1. the **low-rank** part runs the fused Algorithm-1 accumulation (`G`,
///    `\hat{k}_{sum}`, `v_{sum}`) exactly as the Taylor kernel does;
/// 2. the **prediction** and **exact** logit blocks are computed [`ROW_BLOCK`] query
///    rows at a time through the blocked GEMM backend (quantized and full-precision
///    operands respectively);
/// 3. per query row, the surviving positions of the Sanger mask (threshold on the
///    quantized softmax prediction, argmax fallback — the same rule
///    [`SangerSparseAttention::prediction_mask`] applies, hence the same row indices a
///    [`PackedMask`](crate::PackedMask) built from it would report) select where the
///    strong residual `softmax_ij − weak_ij` is evaluated, and only those SDDMM-style
///    terms accumulate `strong_ij · v_j` onto the low-rank output row.
///
/// The result stays within `1e-4` of the traced reference (property-tested across
/// token counts and thresholds) while doing one fewer `n²d` GEMM and touching no
/// `n x n` memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnifiedAttentionKernel {
    reference: UnifiedLowRankSparseAttention,
}

impl UnifiedAttentionKernel {
    /// Creates the fused kernel with the given sparsity threshold.
    ///
    /// # Panics
    ///
    /// Panics when the threshold is outside `[0, 1]`.
    pub fn new(threshold: f32) -> Self {
        Self {
            reference: UnifiedLowRankSparseAttention::new(threshold),
        }
    }

    /// The sparsity threshold of the sparse component.
    pub fn threshold(&self) -> f32 {
        self.reference.threshold()
    }

    /// The traced (unfused) reference implementation this kernel is differentially
    /// tested against.
    pub fn reference(&self) -> UnifiedLowRankSparseAttention {
        self.reference
    }
}

impl AttentionKernel for UnifiedAttentionKernel {
    fn label(&self) -> &'static str {
        "unified"
    }

    fn compute_into(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        ws: &mut Workspace,
        out: &mut Matrix,
    ) {
        validate_out(q, k, v, out);
        let n = k.rows();
        let d_k = k.cols();
        let d_v = v.cols();
        let n_q = q.rows();
        let inv_sqrt_d = 1.0 / (q.cols() as f32).sqrt();
        let sqrt_d = (q.cols() as f32).sqrt();
        let threshold = self.threshold();
        let bits = self.reference.sparse().quant_bits();
        let backend = matmul_backend();

        // Mean-centred keys (the prediction *and* the exact map both run on \hat{K},
        // matching the training pipeline) and the quantized prediction operands.
        let mut k_bar = ws.take_vec(d_k);
        fill_k_bar(k, true, &mut k_bar);
        let mut k_hat = ws.take(n, d_k);
        center_keys_into(k, &k_bar, k_hat.as_mut_slice());
        let mut q_q = ws.take(n_q, d_k);
        quantize_symmetric_into(q, bits, &mut q_q);
        let mut k_q = ws.take(n, d_k);
        quantize_symmetric_into(&k_hat, bits, &mut k_q);

        // Low-rank aggregates and the full low-rank output sweep: the same fused
        // GEMM-backed Algorithm-1 passes the Taylor kernel runs; the per-row loop
        // below only applies the SDDMM correction on top.
        let mut g = ws.take_vec(d_k * d_v);
        let mut k_sum = ws.take_vec(d_k);
        let mut v_sum = ws.take_vec(d_v);
        taylor_aggregates_from_centred(
            backend,
            k_hat.as_slice(),
            v,
            &mut g,
            &mut k_sum,
            &mut v_sum,
        );
        let n_sqrt_d = n as f32 * sqrt_d;
        let mut denoms = ws.take_vec(n_q);
        low_rank_outputs(
            backend,
            q.as_slice(),
            d_k,
            &g,
            &k_sum,
            &v_sum,
            sqrt_d,
            n_sqrt_d,
            out.as_mut_slice(),
            &mut denoms,
        );

        let bs_max = ROW_BLOCK.min(n_q.max(1));
        let mut exact = ws.take_vec(bs_max * n);
        let mut pred = ws.take_vec(bs_max * n);
        let mut surviving = ws.take_indices();

        for lo in (0..n_q).step_by(ROW_BLOCK) {
            let hi = (lo + ROW_BLOCK).min(n_q);
            let bs = hi - lo;
            backend.gemm_into(
                &mut exact[..bs * n],
                bs,
                d_k,
                n,
                Operand::row_major(&q.as_slice()[lo * d_k..hi * d_k], d_k),
                Operand::transposed(k_hat.as_slice(), d_k),
            );
            backend.gemm_into(
                &mut pred[..bs * n],
                bs,
                d_k,
                n,
                Operand::row_major(&q_q.as_slice()[lo * d_k..hi * d_k], d_k),
                Operand::transposed(k_q.as_slice(), d_k),
            );
            for local in 0..bs {
                let i = lo + local;
                let l_row = &mut exact[local * n..(local + 1) * n];
                let p_row = &mut pred[local * n..(local + 1) * n];

                // Sanger mask for this row: softmax of the quantized logits, threshold,
                // argmax fallback — the same rule `prediction_mask` applies densely.
                sanger_row_survivors(p_row, inv_sqrt_d, threshold, &mut surviving);

                // Exact (mean-centred) softmax row statistics.
                let mut l_max = f32::NEG_INFINITY;
                for l in l_row.iter_mut() {
                    *l *= inv_sqrt_d;
                    l_max = l_max.max(*l);
                }
                let mut z_sum = 0.0f32;
                for &l in l_row.iter() {
                    z_sum += (l - l_max).exp();
                }

                // The low-rank output row is already in place from the GEMM-backed
                // sweep above; apply the SDDMM correction at the surviving positions.
                let out_row = out.row_mut(i);
                // Weak denominator in expansion units: t_i = n + q_i k_sum^T / sqrt(d).
                let t_i = denoms[i] * inv_sqrt_d;
                let inv_z = if z_sum > 0.0 { 1.0 / z_sum } else { 0.0 };
                let inv_t = 1.0 / t_i;
                for &j in surviving.iter() {
                    let exact_ij = (l_row[j] - l_max).exp() * inv_z;
                    let weak_ij = (1.0 + l_row[j]) * inv_t;
                    let strong = exact_ij - weak_ij;
                    for (o, &vv) in out_row.iter_mut().zip(v.row(j)) {
                        *o += strong * vv;
                    }
                }
            }
        }

        // Everything is recycled together at the end: recycling small buffers mid-run
        // would let a later, larger checkout grow them (best-fit falls back to the
        // largest pooled buffer), destabilising the pool's size classes across calls.
        ws.recycle_vec(k_bar);
        ws.recycle(k_hat);
        ws.recycle(q_q);
        ws.recycle(k_q);
        ws.recycle_vec(g);
        ws.recycle_vec(k_sum);
        ws.recycle_vec(v_sum);
        ws.recycle_vec(denoms);
        ws.recycle_vec(exact);
        ws.recycle_vec(pred);
        ws.recycle_indices(surviving);
    }

    fn op_counts(&self, n: usize, d: usize) -> OpCounts {
        AttentionMechanism::op_counts(&self.reference, n, d)
    }

    fn forward_train(&self, q: &Var, k: &Var, v: &Var) -> Var {
        self.reference.forward_train(q, k, v)
    }

    fn sparse_occupancy(&self, q: &Matrix, k: &Matrix) -> f32 {
        self.reference.sparse_occupancy(q, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vitality_tensor::init;

    fn qkv(n: usize, d: usize, scale: f32, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            init::normal(&mut rng, n, d, 0.0, scale),
            init::normal(&mut rng, n, d, 0.1, scale),
            init::normal(&mut rng, n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn softmax_kernel_matches_the_parallel_fused_pipeline() {
        for n in [3usize, 64, 150] {
            let (q, k, v) = qkv(n, 16, 0.6, 60);
            let kernel: &dyn AttentionKernel = &SoftmaxAttention::new();
            let expected = crate::fused_softmax_attention(&q, &k, &v);
            assert!(
                kernel.compute(&q, &k, &v).approx_eq(&expected, 1e-5),
                "softmax kernel diverged at n={n}"
            );
        }
    }

    #[test]
    fn taylor_kernel_matches_compute_fused_for_both_centring_modes() {
        for attention in [
            TaylorAttention::new(),
            TaylorAttention::without_mean_centering(),
        ] {
            let (q, k, v) = qkv(129, 16, 0.4, 61);
            let kernel: &dyn AttentionKernel = &attention;
            let expected = attention.compute_fused(&q, &k, &v);
            assert!(
                kernel.compute(&q, &k, &v).approx_eq(&expected, 1e-5),
                "taylor kernel diverged (centring={})",
                attention.mean_centering()
            );
        }
    }

    #[test]
    fn sparse_kernel_matches_the_mechanism_pipeline() {
        let (q, k, v) = qkv(24, 8, 0.7, 62);
        let sparse = SangerSparseAttention::new(0.05);
        let kernel: &dyn AttentionKernel = &sparse;
        assert!(kernel
            .compute(&q, &k, &v)
            .approx_eq(&AttentionMechanism::compute(&sparse, &q, &k, &v), 0.0));
        assert!(AttentionKernel::sparse_occupancy(&sparse, &q, &k) > 0.0);
    }

    #[test]
    fn unified_kernel_matches_the_traced_reference() {
        for &n in &[1usize, 7, 64, 196] {
            for &threshold in &[0.0f32, 0.1, 0.5] {
                let (q, k, v) = qkv(n, 16, 0.6, 63 + n as u64);
                let kernel = UnifiedAttentionKernel::new(threshold);
                let fused = kernel.compute(&q, &k, &v);
                let traced = kernel.reference().compute(&q, &k, &v);
                let diff = fused.max_abs_diff(&traced);
                assert!(
                    diff <= 1e-4,
                    "fused unified kernel diverged at n={n} threshold={threshold}: {diff}"
                );
            }
        }
    }

    #[test]
    fn unified_kernel_survivors_match_the_packed_mask_row_indices() {
        // The fused per-row mask rule must agree with the dense prediction mask that
        // PackedMask packs: spot-check by comparing against a zero-threshold run (all
        // entries survive => fused == exact softmax reconstruction) and the dense mask.
        let (q, k, _) = qkv(24, 8, 0.8, 70);
        let kernel = UnifiedAttentionKernel::new(0.1);
        let k_hat = crate::taylor::mean_center_keys(&k);
        let mask = kernel.reference().sparse().prediction_mask(&q, &k_hat);
        let packed = crate::PackedMask::new(mask, 4);
        // Re-derive the fused kernel's surviving set for each row via the packed mask
        // and check it is non-empty and within bounds — the full functional agreement
        // is covered by `unified_kernel_matches_the_traced_reference`.
        for r in 0..24 {
            let indices: Vec<usize> = packed.row_indices(r).collect();
            assert!(!indices.is_empty(), "row {r} lost every entry");
            assert!(indices.iter().all(|&j| j < 24));
        }
    }

    #[test]
    fn unified_kernel_exposes_threshold_label_and_opcounts() {
        let kernel = UnifiedAttentionKernel::new(0.5);
        assert_eq!(kernel.threshold(), 0.5);
        assert_eq!(kernel.label(), "unified");
        assert_eq!(
            AttentionKernel::op_counts(&kernel, 64, 16).total(),
            AttentionMechanism::op_counts(&kernel.reference(), 64, 16).total()
        );
        let (q, k, _) = qkv(16, 8, 0.8, 71);
        assert!(AttentionKernel::sparse_occupancy(&kernel, &q, &k) >= 0.0);
    }

    #[test]
    fn kernels_reuse_workspace_buffers_bit_exactly() {
        let (q, k, v) = qkv(40, 12, 0.5, 72);
        let kernels: Vec<Box<dyn AttentionKernel>> = vec![
            Box::new(SoftmaxAttention::new()),
            Box::new(TaylorAttention::new()),
            Box::new(UnifiedAttentionKernel::new(0.1)),
        ];
        for kernel in &kernels {
            let mut ws = Workspace::new();
            let mut out = Matrix::zeros(40, 12);
            kernel.compute_into(&q, &k, &v, &mut ws, &mut out);
            let first = out.clone();
            let (checkouts, hits) = (ws.checkouts(), ws.pool_hits());
            // Dirty the output to prove it is fully overwritten.
            out.map_inplace(|_| f32::NAN);
            kernel.compute_into(&q, &k, &v, &mut ws, &mut out);
            assert_eq!(
                out,
                first,
                "{} must be bit-exact under workspace reuse",
                kernel.label()
            );
            assert_eq!(
                ws.checkouts() - checkouts,
                ws.pool_hits() - hits,
                "{} allocated on a warm workspace",
                kernel.label()
            );
        }
    }

    #[test]
    fn kernel_forward_train_matches_compute_for_every_label() {
        use vitality_autograd::Graph;
        let (q, k, v) = qkv(10, 6, 0.4, 73);
        let kernels: Vec<Box<dyn AttentionKernel>> = vec![
            Box::new(SoftmaxAttention::new()),
            Box::new(TaylorAttention::new()),
            Box::new(SangerSparseAttention::new(0.05)),
            Box::new(UnifiedAttentionKernel::new(0.1)),
        ];
        for kernel in &kernels {
            let graph = Graph::new();
            let qv = graph.parameter(q.clone());
            let kv = graph.parameter(k.clone());
            let vv = graph.parameter(v.clone());
            let trained = kernel.forward_train(&qv, &kv, &vv);
            let inferred = kernel.compute(&q, &k, &v);
            assert!(
                trained.value().approx_eq(&inferred, 2e-2),
                "{} train/infer mismatch: {}",
                kernel.label(),
                trained.value().max_abs_diff(&inferred)
            );
            assert!(graph.backward(&trained.mean_all()).len() >= 3);
        }
    }
}
