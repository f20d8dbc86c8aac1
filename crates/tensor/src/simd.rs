//! Runtime CPU-feature detection and the explicit AVX2/FMA microkernels behind
//! [`MatmulBackend::Avx2`](crate::MatmulBackend::Avx2).
//!
//! The scalar 8×8 microkernel in [`crate::backend`] leans on the auto-vectoriser,
//! which on the baseline `x86-64` target means 128-bit SSE2 with separate multiply and
//! add. This module supplies hand-written `std::arch` kernels for the two hot element
//! types:
//!
//! * **f32** — eight 256-bit FMA accumulators (one per register-tile row); each packed
//!   depth step is one aligned B-row load plus eight broadcast-FMA pairs.
//! * **i8** — the AVX2 integer dot-product idiom hardware PE arrays mirror: depth is
//!   processed four steps at a time with `_mm256_maddubs_epi16` (unsigned×signed byte
//!   multiply, pairwise i16 add) followed by `_mm256_madd_epi16` against ones to reach
//!   exact i32 lane sums. Signedness is handled with the `abs`/`sign` trick
//!   (`|a| · (b · sign a) = a · b`), which is exact for all operand values in
//!   `[-127, 127]` — the callers in [`crate::backend`] guard the single excluded value
//!   `-128` (where `_mm256_sign_epi8`'s negation would wrap) and fall back to the
//!   scalar-exact path instead.
//!
//! Three row sweeps make up the softmax attention kernel
//! (`SoftmaxAttention::compute_into` in `vitality-attention`):
//!
//! * [`scaled_logits`] — `Q Kᵀ · scale` for a block of query rows against transposed
//!   keys, several 8-lane FMA accumulators per row, each output written once;
//! * [`shifted_exp_sum`] — `exp(x − max)` over a row, returning the row sum. The
//!   exponential is Cephes-style (clamp, magic-constant rounding, two-term `ln 2`
//!   reduction, degree-5 polynomial, exponent-bit scale) with plain multiplies and
//!   adds; its relative error is at most [`EXP_MAX_REL_ERROR`] (`1e-7`; the worst
//!   case over every `f32` in `[-87, 0]` is `8.13e-8`) against the exact `exp`;
//! * [`scaled_pv`] — the `P·V` product, broadcast-FMA of each probability against its
//!   `V` row, with the `1/sum` normalisation folded into the store.
//!
//! Each has a scalar twin (`*_scalar`), which is the route on hosts without AVX2/FMA.
//! The exp/sum twin is **bit-identical** to the AVX2 path (values and sum: same
//! operations, same lane and fold order); the logit and `P·V` twins use separate
//! multiply and add and so agree with the FMA paths to within `1e-5`.
//!
//! The MLP activation reuses the same exponential: [`gelu`] is the tanh-approximate
//! GELU written as `x / (1 + exp(−2u))`, `u = √(2/π)·(x + 0.044715·x³)`, with an
//! optional per-column bias (the first projection's) added in the same pass. Its
//! scalar twin is bit-identical, and both stay within [`GELU_MAX_ABS_ERROR`] of the
//! exact tanh form.
//!
//! Everything here is gated twice: at compile time on `target_arch = "x86_64"` plus the
//! `--cfg force_scalar` escape hatch (useful under Miri, which does not model the
//! intrinsics), and at runtime on [`cpu_features`] (cached
//! `is_x86_feature_detected!`). Non-x86 and feature-less hosts transparently keep the
//! scalar blocked kernel.

use std::sync::OnceLock;

/// The instruction-set extensions the SIMD microkernels need, detected at runtime.
///
/// Surfaced in `/metrics` and the bench JSON so perf numbers are attributable to the
/// hardware they ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer + float vector ops (`_mm256_maddubs_epi16` and friends).
    pub avx2: bool,
    /// Fused multiply-add (`_mm256_fmadd_ps`).
    pub fma: bool,
}

impl CpuFeatures {
    /// `true` when both extensions the microkernels rely on are present.
    pub fn simd_ready(&self) -> bool {
        self.avx2 && self.fma
    }
}

static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();

/// Detects (once, cached) the CPU features the SIMD backend needs.
///
/// The first call logs the outcome through `trace::info!` so serving logs record which
/// kernel family the process dispatched to.
pub fn cpu_features() -> CpuFeatures {
    *FEATURES.get_or_init(|| {
        let f = detect();
        trace::info!(
            "cpu features: avx2={} fma={} — {}",
            f.avx2,
            f.fma,
            if f.simd_ready() {
                "AVX2/FMA microkernels available"
            } else {
                "scalar blocked kernels only"
            }
        );
        f
    })
}

/// `true` when the AVX2/FMA microkernels can run on this host and build
/// (`x86_64`, not `--cfg force_scalar`, and the CPU advertises both features).
pub fn simd_available() -> bool {
    cfg!(all(target_arch = "x86_64", not(force_scalar))) && cpu_features().simd_ready()
}

#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
fn detect() -> CpuFeatures {
    CpuFeatures {
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        fma: std::arch::is_x86_feature_detected!("fma"),
    }
}

#[cfg(not(all(target_arch = "x86_64", not(force_scalar))))]
fn detect() -> CpuFeatures {
    CpuFeatures {
        avx2: false,
        fma: false,
    }
}

#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
pub(crate) use x86::{gemm_f32_avx2, gemm_i8_avx2};

/// Round-to-nearest-even magic constant (`1.5 · 2²³`): adding it pushes any value in
/// `[-2²², 2²²]` into the binade where one ulp is exactly 1, so the correctly rounded
/// integer falls out of the float add and can be read off the mantissa bits.
pub(crate) const MAGIC: f32 = 12_582_912.0;
pub(crate) const MAGIC_BITS: i32 = MAGIC.to_bits() as i32;

/// Largest absolute entry of a slice (`0.0` when empty). Finite inputs assumed — the
/// quantization calibration sweeps never see NaN/inf activations.
///
/// Dispatches to an AVX2 `vandnps`/`vmaxps` loop when the host supports it; the scalar
/// fallback keeps eight independent lane accumulators (an ordered `max`-fold is a
/// sequential dependency chain LLVM must keep scalar). Both forms compute the exact
/// same maximum — `max` is associative on finite floats.
pub fn absmax(xs: &[f32]) -> f32 {
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        return unsafe { x86::absmax_avx2(xs) };
    }
    absmax_scalar(xs)
}

/// Scalar reference for [`absmax`] — public so differential tests can pin the SIMD
/// path against it on any host.
#[doc(hidden)]
pub fn absmax_scalar(xs: &[f32]) -> f32 {
    let chunks = xs.chunks_exact(8);
    let mut acc = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |acc, &v| acc.max(v.abs()));
    let mut lanes = [0.0f32; 8];
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = lane.max(v.abs());
        }
    }
    for &lane in &lanes {
        acc = acc.max(lane);
    }
    acc
}

/// Quantizes `src` onto the symmetric int8 grid: `dst[i] = rne(clamp(src[i] · inv,
/// -127, 127))` with round-to-nearest-even via the [`MAGIC`] constant. Finite inputs
/// assumed. The AVX2 path and the scalar fallback run the identical IEEE op sequence
/// (multiply, clamp, magic add, mantissa extract) lane for lane, so the two are
/// bit-identical; the saturating `packs` narrowing in the SIMD path never engages
/// because the clamp already bounds every lane to `±127`.
///
/// # Panics
///
/// Panics when `src.len() != dst.len()`.
pub fn quantize_i8(src: &[f32], inv: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize_i8 length mismatch");
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        unsafe { x86::quantize_i8_avx2(src, inv, dst) };
        return;
    }
    quantize_i8_scalar(src, inv, dst);
}

/// Scalar reference for [`quantize_i8`] — public for differential tests.
#[doc(hidden)]
pub fn quantize_i8_scalar(src: &[f32], inv: f32, dst: &mut [i8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let shifted = (s * inv).clamp(-127.0, 127.0) + MAGIC;
        *d = (shifted.to_bits() as i32).wrapping_sub(MAGIC_BITS) as i8;
    }
}

/// [`quantize_i8`] without the int8 narrowing: writes the *lattice view* — the rounded
/// grid values still widened to f32 (`(clamp(src·inv) + MAGIC) - MAGIC`) — for
/// operands whose every downstream consumer is an f32 kernel. Same rounding, same
/// bit-identical SIMD/scalar guarantee.
///
/// # Panics
///
/// Panics when `src.len() != dst.len()`.
pub fn quantize_lattice(src: &[f32], inv: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "quantize_lattice length mismatch");
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        unsafe { x86::quantize_lattice_avx2(src, inv, dst) };
        return;
    }
    quantize_lattice_scalar(src, inv, dst);
}

/// Scalar reference for [`quantize_lattice`] — public for differential tests.
#[doc(hidden)]
pub fn quantize_lattice_scalar(src: &[f32], inv: f32, dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = ((s * inv).clamp(-127.0, 127.0) + MAGIC) - MAGIC;
    }
}

/// Exact per-column i32 sums of a row-major `i8` matrix: `out[c] = Σ_r data[r * cols
/// + c]`. The integer-sum half of the quantized attention aggregates (`k̂_sum`,
/// `v_sum`), hoisted here so it can ride the AVX2 `vpmovsxbd` widen-and-add path.
///
/// # Panics
///
/// Panics when `data.len()` is not a multiple of `out.len()` (`cols`), or `cols == 0`
/// while `data` is non-empty.
pub fn i8_column_sums(data: &[i8], out: &mut [i32]) {
    let cols = out.len();
    assert!(
        (cols == 0 && data.is_empty()) || (cols != 0 && data.len().is_multiple_of(cols)),
        "i8_column_sums: data length {} not a multiple of {cols} columns",
        data.len()
    );
    out.fill(0);
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() && cols >= 8 {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        unsafe { x86::i8_column_sums_avx2(data, out) };
        return;
    }
    i8_column_sums_scalar(data, out);
}

/// Scalar reference for [`i8_column_sums`] — public for differential tests. Adds into
/// `out` without zeroing (the dispatcher zeroes).
#[doc(hidden)]
pub fn i8_column_sums_scalar(data: &[i8], out: &mut [i32]) {
    if out.is_empty() {
        return;
    }
    for row in data.chunks_exact(out.len()) {
        for (acc, &v) in out.iter_mut().zip(row) {
            *acc += i32::from(v);
        }
    }
}

/// Lower clamp of the [`shifted_exp_sum`] exponential. Every input at or below it
/// rounds to `n = -127`, whose exponent field is zero, so the result is exactly `0.0`
/// (an underflow, never a NaN or an infinity).
const EXP_LO: f32 = -88.0;
/// Upper clamp of the exponential: `n = 127` keeps `2ⁿ` a finite normal float.
const EXP_HI: f32 = 88.0;
/// Cody–Waite split of `ln 2`: the high half has 9 significant bits, so `n · LN2_HI`
/// is exact for every `|n| ≤ 128` and the reduction loses nothing there.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` minimax coefficients for `e^r ≈ 1 + r + r² · P(r)` on
/// `|r| ≤ ln 2 / 2`, highest degree first.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// Documented bound on the relative error of the [`shifted_exp_sum`] exponential
/// against the exact `exp` (evaluated in f64) for every input in `[-87, 0]`. An
/// exhaustive sweep over every `f32` in that range peaks at `8.13e-8`, at
/// `x ≈ -59.95`. Below `-87.33` the result falls into the subnormal range and,
/// from about `-87.7`, flushes to `0.0` — the softmax sweep only meets such values
/// for probabilities already below `1e-38` of the row maximum.
pub const EXP_MAX_REL_ERROR: f64 = 1.0e-7;

/// `max` with the exact semantics of `vmaxps a, b`: `a` when `a > b`, else `b`
/// (so the second operand wins on ties, signed zeros and NaN). The scalar twins use
/// it so they pick the very same bits as the AVX2 lanes.
#[inline(always)]
fn max_ps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `min` with the exact semantics of `vminps a, b`.
#[inline(always)]
fn min_ps(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// The scalar Cephes-style exponential: clamp to `[EXP_LO, EXP_HI]`,
/// `n = rne(x · log₂e)` by the [`MAGIC`] add, `r = x − n·ln2_hi − n·ln2_lo`,
/// `e^r ≈ 1 + r + r²·P(r)`, then scale by `2ⁿ` built in the exponent bits. Plain
/// multiplies and adds in a fixed order — the AVX2 lanes run exactly this sequence,
/// so the two are bit-identical.
#[inline(always)]
fn exp_scalar(x: f32) -> f32 {
    let x = min_ps(max_ps(x, EXP_LO), EXP_HI);
    let t = x * std::f32::consts::LOG2_E + MAGIC;
    let fx = t - MAGIC;
    let n = (t.to_bits() as i32).wrapping_sub(MAGIC_BITS);
    let r = (x - fx * LN2_HI) - fx * LN2_LO;
    let r2 = r * r;
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = (p * r2 + r) + 1.0;
    y * f32::from_bits(((n + 127) << 23) as u32)
}

/// Softmax sweep 1, the scaled logits: `out[i·n + j] = Σ_c (q[i·d + c] · scale) ·
/// kt[c·n + j]` for a block of `q.len() / d` query rows against the transposed keys
/// `kt` (`d × n`, row-major — each key column contiguous). Every output element is
/// written once; nothing is zero-filled or accumulated into.
///
/// The AVX2 path takes query rows in pairs and broadcasts each scaled query entry
/// against contiguous `Kᵀ` rows, four 8-lane FMA accumulators per row (32 keys per
/// step, every key load shared by both rows); the scalar twin does the same sums with
/// separate multiply and add, so the two agree to FMA rounding.
///
/// # Panics
///
/// Panics when `d == 0`, `q.len()` or `kt.len()` is not a multiple of `d`, or
/// `out.len() != (q.len() / d) · (kt.len() / d)`.
pub fn scaled_logits(q: &[f32], d: usize, kt: &[f32], scale: f32, out: &mut [f32]) {
    check_logit_shapes(q, d, kt, out);
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified avx2 + fma; shapes checked above.
        unsafe { x86::scaled_logits_avx2(q, d, kt, scale, out) };
        return;
    }
    scaled_logits_scalar(q, d, kt, scale, out);
}

fn check_logit_shapes(q: &[f32], d: usize, kt: &[f32], out: &[f32]) {
    assert!(d > 0, "scaled_logits needs a non-zero feature dimension");
    assert!(
        q.len().is_multiple_of(d) && kt.len().is_multiple_of(d),
        "scaled_logits operands are not multiples of d = {d}"
    );
    assert_eq!(
        out.len(),
        (q.len() / d) * (kt.len() / d),
        "scaled_logits output length"
    );
}

/// Scalar twin of [`scaled_logits`] — public for differential tests.
#[doc(hidden)]
pub fn scaled_logits_scalar(q: &[f32], d: usize, kt: &[f32], scale: f32, out: &mut [f32]) {
    check_logit_shapes(q, d, kt, out);
    let n = kt.len() / d;
    if n == 0 {
        return;
    }
    for (q_row, out_row) in q.chunks_exact(d).zip(out.chunks_exact_mut(n)) {
        let q0 = q_row[0] * scale;
        for (o, &kv) in out_row.iter_mut().zip(&kt[..n]) {
            *o = q0 * kv;
        }
        for (c, &qc) in q_row.iter().enumerate().skip(1) {
            let qc = qc * scale;
            for (o, &kv) in out_row.iter_mut().zip(&kt[c * n..(c + 1) * n]) {
                *o += qc * kv;
            }
        }
    }
}

/// Softmax sweep 2, the exponentials: replaces every `x` of `row` with
/// `exp(x − max(row))` and returns their sum (`0.0` for an empty row). Finite inputs
/// assumed.
///
/// One vector pass takes the maximum, a second writes the exponentials and sums them
/// in eight lane accumulators; lanes are then folded in order and the `len % 8` tail
/// added last. The exponential is the Cephes-style polynomial of `exp_scalar`, within
/// [`EXP_MAX_REL_ERROR`] of the true value on `[-87, 0]`. The scalar twin repeats the
/// lane order, the fold order and every IEEE operation, so values **and** the returned
/// sum are bit-identical to the AVX2 path.
pub fn shifted_exp_sum(row: &mut [f32]) -> f32 {
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        // SAFETY: simd_available() verified the CPU advertises avx2.
        return unsafe { x86::shifted_exp_sum_avx2(row) };
    }
    shifted_exp_sum_scalar(row)
}

/// Scalar twin of [`shifted_exp_sum`] — public for differential tests.
#[doc(hidden)]
pub fn shifted_exp_sum_scalar(row: &mut [f32]) -> f32 {
    let mut chunks = row.chunks_exact_mut(8);
    let mut lanes = [f32::NEG_INFINITY; 8];
    for chunk in chunks.by_ref() {
        for (lane, &x) in lanes.iter_mut().zip(chunk.iter()) {
            *lane = max_ps(*lane, x);
        }
    }
    let mut max = lanes[0];
    for &lane in &lanes[1..] {
        max = max_ps(max, lane);
    }
    for &x in chunks.into_remainder().iter() {
        max = max_ps(max, x);
    }
    let mut chunks = row.chunks_exact_mut(8);
    let mut sums = [0.0f32; 8];
    for chunk in chunks.by_ref() {
        for (sum, x) in sums.iter_mut().zip(chunk.iter_mut()) {
            *x = exp_scalar(*x - max);
            *sum += *x;
        }
    }
    let mut total = sums[0];
    for &sum in &sums[1..] {
        total += sum;
    }
    for x in chunks.into_remainder() {
        *x = exp_scalar(*x - max);
        total += *x;
    }
    total
}

/// Softmax sweep 3, the normalised `P·V`: `out[i·d_v + c] = inv[i] · Σ_j p[i·n + j] ·
/// v[j·d_v + c]` for `inv.len()` query rows, with `n = v.len() / d_v`. For value
/// widths that are multiples of 8, the AVX2 path takes four query rows at a time and
/// broadcasts each probability against its `V` row (one load shared by the four
/// rows), two keys per step into eight independent 8-lane FMA accumulators, and folds
/// the `1/sum` normalisation into the single store; the scalar twin (every other
/// width) agrees with it to FMA rounding.
///
/// # Panics
///
/// Panics when `v.len()` is not a multiple of `d_v`, or `p` / `out` do not hold
/// `inv.len()` rows of `n` / `d_v` entries.
pub fn scaled_pv(p: &[f32], v: &[f32], d_v: usize, inv: &[f32], out: &mut [f32]) {
    check_pv_shapes(p, v, d_v, inv, out);
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() && d_v > 0 && d_v.is_multiple_of(8) {
        // SAFETY: simd_available() verified avx2 + fma; shapes checked above and
        // `d_v` is a non-zero multiple of 8.
        unsafe { x86::scaled_pv_avx2(p, v, d_v, inv, out) };
        return;
    }
    scaled_pv_scalar(p, v, d_v, inv, out);
}

fn check_pv_shapes(p: &[f32], v: &[f32], d_v: usize, inv: &[f32], out: &[f32]) {
    assert_eq!(out.len(), inv.len() * d_v, "scaled_pv output length");
    if d_v > 0 {
        assert!(
            v.len().is_multiple_of(d_v),
            "scaled_pv: v is not a multiple of d_v = {d_v}"
        );
        assert_eq!(p.len(), inv.len() * (v.len() / d_v), "scaled_pv p length");
    }
}

/// Scalar twin of [`scaled_pv`] — public for differential tests.
#[doc(hidden)]
pub fn scaled_pv_scalar(p: &[f32], v: &[f32], d_v: usize, inv: &[f32], out: &mut [f32]) {
    check_pv_shapes(p, v, d_v, inv, out);
    if d_v == 0 {
        return;
    }
    let n = v.len() / d_v;
    for (i, (out_row, &scale)) in out.chunks_exact_mut(d_v).zip(inv).enumerate() {
        out_row.fill(0.0);
        for (&pj, v_row) in p[i * n..(i + 1) * n].iter().zip(v.chunks_exact(d_v)) {
            for (o, &vv) in out_row.iter_mut().zip(v_row) {
                *o += pj * vv;
            }
        }
        for o in out_row.iter_mut() {
            *o *= scale;
        }
    }
}

/// The cubic coefficient of the GELU tanh approximation.
const GELU_A: f32 = 0.044_715;
/// `−2·√(2/π)`: `0.5·(1 + tanh u) = 1 / (1 + exp(−2u))`, so the sweep needs
/// `exp(GELU_NEG_2C · (x + GELU_A·x³))` only. Doubling is exact, so this is `−2`
/// times the f32 `√(2/π)` (`0.797_884_6`) the tanh form uses.
const GELU_NEG_2C: f32 = -2.0 * 0.797_884_6;
/// Lower clamp of the GELU input. Below about `−10.03` the exponential saturates at
/// [`EXP_HI`] while `x` keeps growing, so `x / (1 + e⁸⁸)` would drift from `0` for
/// `x ≲ −1e37`. The exact GELU is below `2e-37` in magnitude for every `x ≤ −10`, so
/// clamping there costs no accuracy and keeps every output finite and ≈ 0.
const GELU_LO: f32 = -10.0;

/// Documented bound on the absolute error of [`gelu`] against the tanh-approximate
/// GELU `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))` evaluated in f64. A dense sweep
/// over `[−12, 12]` peaks at about `5.2e-7`, near `x ≈ 4.7`, where rounding
/// `1 + exp(−2u)` and the division each cost up to half an ulp of a result near `x`;
/// the per-element libm `tanhf` form peaks at about `4.3e-7` on the same sweep.
pub const GELU_MAX_ABS_ERROR: f64 = 1.0e-6;

/// One GELU element, the exact operation sequence the AVX2 lanes run:
/// clamp at [`GELU_LO`] (`vmaxps` order, so a NaN input stays NaN), the cubic,
/// [`exp_scalar`], then one correctly rounded division.
#[inline(always)]
fn gelu_one(x: f32) -> f32 {
    let x = max_ps(GELU_LO, x);
    let inner = x + GELU_A * x * x * x;
    x / (exp_scalar(inner * GELU_NEG_2C) + 1.0)
}

/// The MLP activation sweep: replaces every `x` of `xs` with the tanh-approximate
/// GELU of `x + bias[j]` (`j` the column) — or of `x` alone when `bias` is `None`,
/// where `xs` is one flat row. With a bias, `xs` is row-major with `bias.len()`
/// columns, which lets the first MLP projection skip its own bias pass.
///
/// The AVX2 path takes eight columns per step through the shared Cephes-style
/// exponential and a `vdivps`; the column tail runs the scalar element. The scalar
/// twin repeats every IEEE operation, so the two are bit-identical. Outputs stay
/// within [`GELU_MAX_ABS_ERROR`] of the exact form; large positive inputs (up to
/// `f32::MAX`) come back as `x` itself, inputs far below zero as a value within
/// `2e-37` of `0`.
///
/// # Panics
///
/// Panics when `xs.len()` is not a whole number of `bias.len()`-wide rows.
pub fn gelu(xs: &mut [f32], bias: Option<&[f32]>) {
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        gelu_rows(xs, bias, |row, bias| {
            // SAFETY: simd_available() verified avx2; gelu_rows passes a bias row of
            // exactly `row.len()` entries.
            unsafe { x86::gelu_row_avx2(row, bias) }
        });
        return;
    }
    gelu_scalar(xs, bias);
}

/// Scalar twin of [`gelu`] — public for differential tests.
#[doc(hidden)]
pub fn gelu_scalar(xs: &mut [f32], bias: Option<&[f32]>) {
    gelu_rows(xs, bias, |row, bias| match bias {
        Some(bias) => {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x = gelu_one(*x + b);
            }
        }
        None => {
            for x in row.iter_mut() {
                *x = gelu_one(*x);
            }
        }
    });
}

/// Splits `xs` into the rows [`gelu`] works on — the whole slice without a bias,
/// `bias.len()`-wide rows with one — and hands each to `f` with its bias row.
fn gelu_rows(xs: &mut [f32], bias: Option<&[f32]>, mut f: impl FnMut(&mut [f32], Option<&[f32]>)) {
    let Some(bias) = bias else {
        return f(xs, None);
    };
    if xs.is_empty() {
        return;
    }
    assert!(
        !bias.is_empty() && xs.len().is_multiple_of(bias.len()),
        "gelu: {} values are not whole rows of a {}-wide bias",
        xs.len(),
        bias.len()
    );
    for row in xs.chunks_exact_mut(bias.len()) {
        f(row, Some(bias));
    }
}

/// Test-only direct entry to the AVX2 f32 driver, bypassing the small-product
/// cutoff in the public dispatch so differential tests can pin the microkernel's
/// remainder lanes on tiny shapes. Overwrites `out`; returns `false` (leaving `out`
/// zeroed) when the SIMD kernels cannot run on this host/build.
#[doc(hidden)]
pub fn gemm_f32_avx2_direct(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: crate::backend::Operand<'_>,
    b: crate::backend::Operand<'_>,
) -> bool {
    assert_eq!(
        out.len(),
        m * n,
        "gemm_f32_avx2_direct output buffer length"
    );
    out.fill(0.0);
    #[cfg(all(target_arch = "x86_64", not(force_scalar)))]
    if simd_available() {
        if m > 0 && n > 0 && k > 0 {
            x86::gemm_f32_avx2(out, m, k, n, a, b);
        }
        return true;
    }
    #[cfg(not(all(target_arch = "x86_64", not(force_scalar))))]
    let _ = (a, b, k);
    false
}

#[cfg(all(target_arch = "x86_64", not(force_scalar)))]
mod x86 {
    use crate::aligned::{AlignedVec, SIMD_ALIGN};
    use crate::backend::{IntOperand, Layout, Operand, KC, MC, MR, NC, NR};
    use rayon::prelude::*;
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Depth steps folded into one i32 lane per `maddubs`/`madd` pair.
    const KG: usize = 4;

    std::thread_local! {
        // Packed-panel scratch, one cell per operand side so a caller holding the
        // B-panel borrow across the parallel region never collides with a worker
        // (possibly this same thread, under the inline rayon shim) packing A.
        static PANEL_A_F32: RefCell<AlignedVec<f32>> = RefCell::new(AlignedVec::new());
        static PANEL_B_F32: RefCell<AlignedVec<f32>> = RefCell::new(AlignedVec::new());
        static PANEL_A_I8: RefCell<AlignedVec<i8>> = RefCell::new(AlignedVec::new());
        static PANEL_B_I8: RefCell<AlignedVec<i8>> = RefCell::new(AlignedVec::new());
    }

    /// AVX2+FMA `MR × NR` register-tile microkernel: accumulates `kc` packed depth
    /// steps into `acc`. `ap` is k-major `MR`-wide, `bp` k-major `NR`-wide (the same
    /// packed layout the scalar microkernel consumes), and `bp` must be 32-byte
    /// aligned — each packed B row is exactly one `__m256`, loaded aligned.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports `avx2` and `fma` (checked once via
    /// [`super::cpu_features`] before any dispatch reaches this module) and that
    /// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`, with `bp` 32-byte aligned.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn microkernel_f32(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        debug_assert_eq!(bp.as_ptr() as usize % SIMD_ALIGN, 0);
        let mut rows = [_mm256_setzero_ps(); MR];
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        for kk in 0..kc {
            // SAFETY: `kk < kc`, so the B row starts within bounds (len >= kc * NR);
            // the panel base is 32-byte aligned and each row is NR * 4 = 32 bytes,
            // keeping every row start aligned.
            let bv = unsafe { _mm256_load_ps(b.add(kk * NR)) };
            for (i, row) in rows.iter_mut().enumerate() {
                // SAFETY: `kk * MR + i < kc * MR <= ap.len()`.
                let av = unsafe { _mm256_broadcast_ss(&*a.add(kk * MR + i)) };
                *row = _mm256_fmadd_ps(av, bv, *row);
            }
        }
        for (dst, row) in acc.iter_mut().zip(rows) {
            // SAFETY: `dst` is a [f32; NR] — exactly the 8 lanes stored (unaligned
            // store: the accumulator tile lives on the stack).
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), row) };
        }
    }

    /// AVX2 `maddubs` integer microkernel: accumulates `groups` packed groups of
    /// [`KG`] depth steps into the `MR × NR` i32 tile `acc`. Packed layouts (see
    /// [`pack_a_i8`]/[`pack_b_i8`]): per group, `ap` holds `MR` rows × `KG`
    /// consecutive depth bytes, `bp` holds `NR` columns × `KG` depth bytes — one
    /// 32-byte aligned `__m256i` per B group.
    ///
    /// Exactness: with every operand byte in `[-127, 127]`, each `maddubs` pair sum
    /// is bounded by `2 · 127² = 32 258 < i16::MAX`, so the saturating i16 add never
    /// saturates, and `madd_epi16` widens exactly to i32. The callers keep `-128`
    /// out (it would additionally wrap in `_mm256_sign_epi8`).
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `ap.len() >= groups * KG * MR`,
    /// `bp.len() >= groups * KG * NR`, both 32-byte aligned.
    #[target_feature(enable = "avx2")]
    unsafe fn microkernel_i8(ap: &[i8], bp: &[i8], groups: usize, acc: &mut [[i32; NR]; MR]) {
        debug_assert!(ap.len() >= groups * KG * MR && bp.len() >= groups * KG * NR);
        debug_assert_eq!(ap.as_ptr() as usize % SIMD_ALIGN, 0);
        debug_assert_eq!(bp.as_ptr() as usize % SIMD_ALIGN, 0);
        let ones = _mm256_set1_epi16(1);
        let mut rows = [_mm256_setzero_si256(); MR];
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        for g in 0..groups {
            // SAFETY: group `g` starts at byte `g * 32 < groups * KG * NR <= bp.len()`
            // and the panel base is 32-byte aligned, so every group load is aligned.
            let bv = unsafe { _mm256_load_si256(b.add(g * KG * NR).cast::<__m256i>()) };
            for (i, row) in rows.iter_mut().enumerate() {
                // SAFETY: the four A bytes of (group g, row i) start at
                // `g * 32 + i * 4`, in bounds and 4-byte aligned off the 32-byte
                // aligned base.
                let aw = unsafe { a.add(g * KG * MR + i * KG).cast::<i32>().read() };
                let av = _mm256_set1_epi32(aw);
                let ua = _mm256_abs_epi8(av);
                let sb = _mm256_sign_epi8(bv, av);
                let pairs = _mm256_maddubs_epi16(ua, sb);
                *row = _mm256_add_epi32(*row, _mm256_madd_epi16(pairs, ones));
            }
        }
        for (dst, row) in acc.iter_mut().zip(rows) {
            // SAFETY: `dst` is a [i32; NR] — exactly the 8 lanes stored.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast::<__m256i>(), row) };
        }
    }

    /// Packs `kc` depth steps of `count` consecutive A rows into the k-major
    /// `MR`-wide f32 tile, writing **every** slot (edge rows zeroed) so dirty
    /// reused scratch never leaks stale values into the kernel.
    fn pack_a_f32(dst: &mut [f32], a: Operand<'_>, kc: usize, k0: usize, r0: usize, count: usize) {
        for kk in 0..kc {
            let row = &mut dst[kk * MR..kk * MR + MR];
            for (i, slot) in row.iter_mut().enumerate() {
                *slot = if i < count {
                    a.at(r0 + i, k0 + kk)
                } else {
                    0.0
                };
            }
        }
    }

    /// Packs `kc` depth steps of `count` consecutive B columns into the k-major
    /// `NR`-wide f32 tile, writing every slot (edge columns zeroed).
    fn pack_b_f32(dst: &mut [f32], b: Operand<'_>, kc: usize, k0: usize, j0: usize, count: usize) {
        for kk in 0..kc {
            let row = &mut dst[kk * NR..kk * NR + NR];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = if j < count {
                    b.at(k0 + kk, j0 + j)
                } else {
                    0.0
                };
            }
        }
    }

    /// Interleaves four 8-byte depth rows into one packed 32-byte group:
    /// `dst[lane * KG + t] = row_t[lane]` — the exact scatter both i8 packers need
    /// per group, done with three `punpck` stages instead of 32 dependent byte
    /// stores. SSE2 only, which is baseline on every `x86_64` target.
    #[inline(always)]
    fn interleave_4x8(dst: &mut [i8], r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) {
        debug_assert!(dst.len() >= 32);
        debug_assert!(r0.len() >= 8 && r1.len() >= 8 && r2.len() >= 8 && r3.len() >= 8);
        // SAFETY: SSE2 is baseline on x86_64 (this module is compile-gated to it);
        // each `loadl` reads exactly the 8 asserted bytes, the two stores write the
        // 32 asserted destination bytes.
        unsafe {
            let v0 = _mm_loadl_epi64(r0.as_ptr().cast::<__m128i>());
            let v1 = _mm_loadl_epi64(r1.as_ptr().cast::<__m128i>());
            let v2 = _mm_loadl_epi64(r2.as_ptr().cast::<__m128i>());
            let v3 = _mm_loadl_epi64(r3.as_ptr().cast::<__m128i>());
            // ab = a0 b0 a1 b1 … a7 b7; cd likewise; the 16-bit unpacks then yield
            // a_j b_j c_j d_j quads in lane order — the packed group layout.
            let ab = _mm_unpacklo_epi8(v0, v1);
            let cd = _mm_unpacklo_epi8(v2, v3);
            let lo = _mm_unpacklo_epi16(ab, cd);
            let hi = _mm_unpackhi_epi16(ab, cd);
            let out = dst.as_mut_ptr();
            _mm_storeu_si128(out.cast::<__m128i>(), lo);
            _mm_storeu_si128(out.add(16).cast::<__m128i>(), hi);
        }
    }

    /// Packs `count` consecutive A rows into `groups` byte groups: group `g`, row
    /// `i`, depth offset `t` lands at `dst[g * KG * MR + i * KG + t]`. Edge rows and
    /// the depth tail beyond `k` are zeroed (zero products contribute nothing).
    ///
    /// Full `MR`-row tiles over complete depth groups — the entire interior of any
    /// GEMM whose `m` is a multiple of 8 and `k` of 4, e.g. every attention head
    /// aggregate — take a branch-free [`interleave_4x8`]/`memcpy` path; only edge
    /// tiles and the depth tail pay the per-byte bounds/branch cost of the general
    /// path. On the `(d, n, d)` head shapes the packers are a measurable slice of
    /// the whole integer GEMM, so this is worth the two code paths.
    fn pack_a_i8(
        dst: &mut [i8],
        a: IntOperand<'_>,
        k: usize,
        groups: usize,
        r0: usize,
        count: usize,
    ) {
        let (data, stride, layout) = a.raw();
        let full = if count == MR { k / KG } else { 0 };
        match layout {
            // A[r, kk] = data[kk * stride + r]: each depth step is MR consecutive
            // source bytes scattered to stride-KG slots of the group block — the
            // 4×8 interleave.
            Layout::Transposed => {
                for g in 0..full {
                    let block = &mut dst[g * KG * MR..(g + 1) * KG * MR];
                    let row = |t: usize| &data[(g * KG + t) * stride + r0..][..MR];
                    interleave_4x8(block, row(0), row(1), row(2), row(3));
                }
            }
            // A[r, kk] = data[r * stride + kk]: each row contributes KG consecutive
            // source bytes per group — a direct 4-byte copy.
            Layout::RowMajor => {
                for g in 0..full {
                    let block = &mut dst[g * KG * MR..(g + 1) * KG * MR];
                    for i in 0..MR {
                        let src = &data[(r0 + i) * stride + g * KG..][..KG];
                        block[i * KG..(i + 1) * KG].copy_from_slice(src);
                    }
                }
            }
        }
        for g in full..groups {
            let block = &mut dst[g * KG * MR..(g + 1) * KG * MR];
            for i in 0..MR {
                for t in 0..KG {
                    let kk = g * KG + t;
                    block[i * KG + t] = if i < count && kk < k {
                        a.at(r0 + i, kk)
                    } else {
                        0
                    };
                }
            }
        }
    }

    /// Packs `count` consecutive B columns into `groups` byte groups: group `g`,
    /// column `j`, depth offset `t` lands at `dst[g * KG * NR + j * KG + t]`.
    /// Same interior fast path / edge slow path split as [`pack_a_i8`].
    fn pack_b_i8(
        dst: &mut [i8],
        b: IntOperand<'_>,
        k: usize,
        groups: usize,
        j0: usize,
        count: usize,
    ) {
        let (data, stride, layout) = b.raw();
        let full = if count == NR { k / KG } else { 0 };
        match layout {
            // B[kk, j] = data[kk * stride + j]: each depth step is NR consecutive
            // source bytes scattered to stride-KG slots of the group block — the
            // 4×8 interleave.
            Layout::RowMajor => {
                for g in 0..full {
                    let block = &mut dst[g * KG * NR..(g + 1) * KG * NR];
                    let row = |t: usize| &data[(g * KG + t) * stride + j0..][..NR];
                    interleave_4x8(block, row(0), row(1), row(2), row(3));
                }
            }
            // B[kk, j] = data[j * stride + kk]: each column contributes KG
            // consecutive source bytes per group — a direct 4-byte copy.
            Layout::Transposed => {
                for g in 0..full {
                    let block = &mut dst[g * KG * NR..(g + 1) * KG * NR];
                    for j in 0..NR {
                        let src = &data[(j0 + j) * stride + g * KG..][..KG];
                        block[j * KG..(j + 1) * KG].copy_from_slice(src);
                    }
                }
            }
        }
        for g in full..groups {
            let block = &mut dst[g * KG * NR..(g + 1) * KG * NR];
            for j in 0..NR {
                for t in 0..KG {
                    let kk = g * KG + t;
                    block[j * KG + t] = if j < count && kk < k {
                        b.at(kk, j0 + j)
                    } else {
                        0
                    };
                }
            }
        }
    }

    /// AVX2 absmax sweep: `vandnps` abs + `vmaxps` accumulate, eight lanes wide.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn absmax_avx2(xs: &[f32]) -> f32 {
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        let chunks = xs.chunks_exact(8);
        let mut m = chunks
            .remainder()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()));
        for chunk in chunks {
            // SAFETY: each exact chunk holds 8 contiguous f32s.
            let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
            acc = _mm256_max_ps(acc, _mm256_andnot_ps(sign, v));
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is exactly the 8 stored f32 lanes (stack, unaligned store).
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        for &lane in &lanes {
            m = m.max(lane);
        }
        m
    }

    /// AVX2 int8 quantization sweep: 32 floats per iteration — four
    /// multiply/clamp/magic-round vectors narrowed with two saturating `packs` stages
    /// and one cross-lane permute. The saturation never engages (the clamp bounds
    /// every lane to ±127), so the result is bit-identical to the scalar loop.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `src.len() == dst.len()` (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn quantize_i8_avx2(src: &[f32], inv: f32, dst: &mut [i8]) {
        debug_assert_eq!(src.len(), dst.len());
        let invv = _mm256_set1_ps(inv);
        let lo = _mm256_set1_ps(-127.0);
        let hi = _mm256_set1_ps(127.0);
        let magic = _mm256_set1_ps(super::MAGIC);
        let magic_bits = _mm256_set1_epi32(super::MAGIC_BITS);
        // packs_epi32 + packs_epi16 interleave 128-bit lanes; this permute restores
        // source order (dword g of the packed result came from input vector g % 4's
        // half g / 4).
        let unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let n = src.len();
        let s = src.as_ptr();
        let d = dst.as_mut_ptr();
        for b in 0..n / 32 {
            let mut q = [_mm256_setzero_si256(); 4];
            for (t, qt) in q.iter_mut().enumerate() {
                // SAFETY: `b * 32 + t * 8 + 7 < 32 * (n / 32) <= n`.
                let x = unsafe { _mm256_loadu_ps(s.add(b * 32 + t * 8)) };
                let y = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(x, invv), lo), hi);
                *qt = _mm256_sub_epi32(_mm256_castps_si256(_mm256_add_ps(y, magic)), magic_bits);
            }
            let p01 = _mm256_packs_epi32(q[0], q[1]);
            let p23 = _mm256_packs_epi32(q[2], q[3]);
            let packed = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), unshuffle);
            // SAFETY: the 32 output bytes at `b * 32` are within `dst`.
            unsafe { _mm256_storeu_si256(d.add(b * 32).cast::<__m256i>(), packed) };
        }
        for i in (n / 32) * 32..n {
            let shifted = (src[i] * inv).clamp(-127.0, 127.0) + super::MAGIC;
            dst[i] = (shifted.to_bits() as i32).wrapping_sub(super::MAGIC_BITS) as i8;
        }
    }

    /// AVX2 lattice quantization sweep: multiply/clamp, magic add then subtract —
    /// the rounded grid value kept widened in f32.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `src.len() == dst.len()` (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn quantize_lattice_avx2(src: &[f32], inv: f32, dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let invv = _mm256_set1_ps(inv);
        let lo = _mm256_set1_ps(-127.0);
        let hi = _mm256_set1_ps(127.0);
        let magic = _mm256_set1_ps(super::MAGIC);
        let n = src.len();
        let s = src.as_ptr();
        let d = dst.as_mut_ptr();
        for i in 0..n / 8 {
            // SAFETY: `i * 8 + 7 < 8 * (n / 8) <= n` for both load and store.
            let x = unsafe { _mm256_loadu_ps(s.add(i * 8)) };
            let y = _mm256_min_ps(_mm256_max_ps(_mm256_mul_ps(x, invv), lo), hi);
            let z = _mm256_sub_ps(_mm256_add_ps(y, magic), magic);
            unsafe { _mm256_storeu_ps(d.add(i * 8), z) };
        }
        for i in (n / 8) * 8..n {
            dst[i] = ((src[i] * inv).clamp(-127.0, 127.0) + super::MAGIC) - super::MAGIC;
        }
    }

    /// AVX2 i8 column sums: `vpmovsxbd` widen plus i32 vector add, with up to eight
    /// register accumulators (64 columns) per pass over the rows. Adds into `out`
    /// (the dispatcher zeroes it), so multi-pass wide matrices compose.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `data.len()` must be a multiple of `out.len() >= 8`
    /// (checked by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn i8_column_sums_avx2(data: &[i8], out: &mut [i32]) {
        let cols = out.len();
        let rows = data.len() / cols;
        let simd_cols = cols - cols % 8;
        let mut c0 = 0;
        while c0 < simd_cols {
            let nblk = ((simd_cols - c0) / 8).min(8);
            let mut acc = [_mm256_setzero_si256(); 8];
            for r in 0..rows {
                let base = r * cols + c0;
                for (b, accb) in acc.iter_mut().take(nblk).enumerate() {
                    // SAFETY: `base + b * 8 + 8 <= r * cols + simd_cols <=
                    // data.len()` — each load reads 8 in-bounds bytes.
                    let v = unsafe {
                        _mm_loadl_epi64(data.as_ptr().add(base + b * 8).cast::<__m128i>())
                    };
                    *accb = _mm256_add_epi32(*accb, _mm256_cvtepi8_epi32(v));
                }
            }
            for (b, accb) in acc.iter().take(nblk).enumerate() {
                // SAFETY: `out[c0 + b * 8..][..8]` is in bounds (`c0 + nblk * 8 <=
                // simd_cols <= cols`); unaligned load/store pair accumulates.
                unsafe {
                    let dst = out.as_mut_ptr().add(c0 + b * 8).cast::<__m256i>();
                    _mm256_storeu_si256(dst, _mm256_add_epi32(_mm256_loadu_si256(dst), *accb));
                }
            }
            c0 += nblk * 8;
        }
        if simd_cols < cols {
            for row in data.chunks_exact(cols) {
                for (acc, &v) in out[simd_cols..].iter_mut().zip(&row[simd_cols..]) {
                    *acc += i32::from(v);
                }
            }
        }
    }

    /// Eight lanes of `super::exp_scalar`, operation for operation.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_avx2(x: __m256) -> __m256 {
        let x = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_set1_ps(super::EXP_LO)),
            _mm256_set1_ps(super::EXP_HI),
        );
        let magic = _mm256_set1_ps(super::MAGIC);
        let t = _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            magic,
        );
        let fx = _mm256_sub_ps(t, magic);
        let n = _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_set1_epi32(super::MAGIC_BITS));
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(super::LN2_HI))),
            _mm256_mul_ps(fx, _mm256_set1_ps(super::LN2_LO)),
        );
        let r2 = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(super::EXP_POLY[0]);
        for &c in &super::EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, r2), r), _mm256_set1_ps(1.0));
        let scale = _mm256_slli_epi32::<23>(_mm256_add_epi32(n, _mm256_set1_epi32(127)));
        _mm256_mul_ps(y, _mm256_castsi256_ps(scale))
    }

    /// AVX2 [`super::shifted_exp_sum`]: a `vmaxps` pass, then the exponential pass
    /// with one 8-lane sum accumulator; lane folds and the tail run through the same
    /// scalar helpers as the twin.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn shifted_exp_sum_avx2(row: &mut [f32]) -> f32 {
        let len = row.len();
        let full = len - len % 8;
        let ptr = row.as_mut_ptr();
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        for i in (0..full).step_by(8) {
            // SAFETY: `i + 8 <= full <= len`.
            vmax = _mm256_max_ps(vmax, unsafe { _mm256_loadu_ps(ptr.add(i)) });
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is exactly the 8 stored f32 lanes.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), vmax) };
        let mut max = lanes[0];
        for &lane in &lanes[1..] {
            max = super::max_ps(max, lane);
        }
        for &x in &row[full..] {
            max = super::max_ps(max, x);
        }
        let shift = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        let mut i = 0;
        // Four independent exponentials in flight per step; their sums still enter
        // `vsum` one after another, in chunk order, as in the scalar twin.
        while i + 32 <= full {
            // SAFETY: `i + 32 <= full <= len` for the loads and the stores.
            unsafe {
                let e: [__m256; 4] = std::array::from_fn(|t| {
                    exp_avx2(_mm256_sub_ps(_mm256_loadu_ps(ptr.add(i + 8 * t)), shift))
                });
                for (t, &e_t) in e.iter().enumerate() {
                    _mm256_storeu_ps(ptr.add(i + 8 * t), e_t);
                    vsum = _mm256_add_ps(vsum, e_t);
                }
            }
            i += 32;
        }
        while i < full {
            // SAFETY: `i + 8 <= full <= len` for the load and the store.
            unsafe {
                let e = exp_avx2(_mm256_sub_ps(_mm256_loadu_ps(ptr.add(i)), shift));
                _mm256_storeu_ps(ptr.add(i), e);
                vsum = _mm256_add_ps(vsum, e);
            }
            i += 8;
        }
        // SAFETY: as above.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), vsum) };
        let mut total = lanes[0];
        for &lane in &lanes[1..] {
            total += lane;
        }
        for x in &mut row[full..] {
            *x = super::exp_scalar(*x - max);
            total += *x;
        }
        total
    }

    /// Eight lanes of `super::gelu_one`, operation for operation.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gelu8(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_set1_ps(super::GELU_LO), x);
        let a = _mm256_set1_ps(super::GELU_A);
        let cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(a, x), x), x);
        let inner = _mm256_add_ps(x, cube);
        // SAFETY: this function's own `avx2` requirement covers `exp_avx2`'s.
        let e = unsafe { exp_avx2(_mm256_mul_ps(inner, _mm256_set1_ps(super::GELU_NEG_2C))) };
        _mm256_div_ps(x, _mm256_add_ps(e, _mm256_set1_ps(1.0)))
    }

    /// AVX2 [`super::gelu`] over one row: eight columns per step, each lane running
    /// `super::gelu_one`'s operation sequence; the `len % 8` tail runs the scalar
    /// element itself.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2`; `bias`, when present, holds `row.len()` entries.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gelu_row_avx2(row: &mut [f32], bias: Option<&[f32]>) {
        let len = row.len();
        debug_assert!(bias.is_none_or(|b| b.len() == len));
        let full = len - len % 8;
        let ptr = row.as_mut_ptr();
        for i in (0..full).step_by(8) {
            // SAFETY: `i + 8 <= full <= len` for the row load and store, and the
            // caller guarantees `bias` has `len` entries.
            unsafe {
                let mut x = _mm256_loadu_ps(ptr.add(i));
                if let Some(bias) = bias {
                    x = _mm256_add_ps(x, _mm256_loadu_ps(bias.as_ptr().add(i)));
                }
                _mm256_storeu_ps(ptr.add(i), gelu8(x));
            }
        }
        for (j, x) in row[full..].iter_mut().enumerate() {
            let v = match bias {
                Some(bias) => *x + bias[full + j],
                None => *x,
            };
            *x = super::gelu_one(v);
        }
    }

    /// AVX2 [`super::scaled_logits`]: query rows in pairs (a lone last row on its
    /// own), each pair sharing every `Kᵀ` load — see [`logit_rows`].
    ///
    /// # Safety
    ///
    /// CPU must support `avx2` and `fma`; shapes as checked by the dispatcher.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn scaled_logits_avx2(
        q: &[f32],
        d: usize,
        kt: &[f32],
        scale: f32,
        out: &mut [f32],
    ) {
        let n = kt.len() / d;
        if n == 0 {
            return;
        }
        let mut q_pairs = q.chunks_exact(2 * d);
        let mut out_pairs = out.chunks_exact_mut(2 * n);
        for (q_pair, out_pair) in q_pairs.by_ref().zip(out_pairs.by_ref()) {
            // SAFETY: avx2 + fma per this function's contract; the pair holds 2 rows.
            unsafe { logit_rows::<2>(q_pair, d, kt, n, scale, out_pair) };
        }
        let (q_last, out_last) = (q_pairs.remainder(), out_pairs.into_remainder());
        if !q_last.is_empty() {
            // SAFETY: as above, for the one remaining row.
            unsafe { logit_rows::<1>(q_last, d, kt, n, scale, out_last) };
        }
    }

    /// `R` query rows of [`super::scaled_logits`]: 32 keys per step, each `Kᵀ` load
    /// feeding one FMA per row into `4 · R` independent accumulators, then a scalar
    /// tail for the last `n % 32` keys.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2` and `fma`; `q.len() == R · d`, `out.len() == R · n`,
    /// `kt.len() == d · n`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn logit_rows<const R: usize>(
        q: &[f32],
        d: usize,
        kt: &[f32],
        n: usize,
        scale: f32,
        out: &mut [f32],
    ) {
        debug_assert!(q.len() == R * d && out.len() == R * n && kt.len() == d * n);
        let k = kt.as_ptr();
        let o = out.as_mut_ptr();
        let mut j = 0;
        while j + 32 <= n {
            let mut acc = [[_mm256_setzero_ps(); 4]; R];
            for c in 0..d {
                // SAFETY: `c * n + j + 32 <= c * n + n <= kt.len()`.
                let kv = unsafe {
                    let row = k.add(c * n + j);
                    [
                        _mm256_loadu_ps(row),
                        _mm256_loadu_ps(row.add(8)),
                        _mm256_loadu_ps(row.add(16)),
                        _mm256_loadu_ps(row.add(24)),
                    ]
                };
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let qv = _mm256_set1_ps(q[r * d + c] * scale);
                    for (a, &kv_t) in acc_r.iter_mut().zip(&kv) {
                        *a = _mm256_fmadd_ps(qv, kv_t, *a);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                for (t, &a) in acc_r.iter().enumerate() {
                    // SAFETY: `r * n + j + 8 * t + 8 <= r * n + n <= out.len()`.
                    unsafe { _mm256_storeu_ps(o.add(r * n + j + 8 * t), a) };
                }
            }
            j += 32;
        }
        for (q_row, out_row) in q.chunks_exact(d).zip(out.chunks_exact_mut(n)) {
            for (jj, slot) in out_row.iter_mut().enumerate().skip(j) {
                let mut s = 0.0f32;
                for (c, &qc) in q_row.iter().enumerate() {
                    s += (qc * scale) * kt[c * n + jj];
                }
                *slot = s;
            }
        }
    }

    /// AVX2 [`super::scaled_pv`]: query rows in fours (then one at a time), per
    /// 8-column block of `V`.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2` and `fma`; `d_v` is a non-zero multiple of 8 and the
    /// shapes are as checked by the dispatcher.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn scaled_pv_avx2(
        p: &[f32],
        v: &[f32],
        d_v: usize,
        inv: &[f32],
        out: &mut [f32],
    ) {
        let n = v.len() / d_v;
        let mut i = 0;
        while i < inv.len() {
            let rows = if i + 4 <= inv.len() { 4 } else { 1 };
            let (p_rows, inv_rows) = (&p[i * n..(i + rows) * n], &inv[i..i + rows]);
            let out_rows = &mut out[i * d_v..(i + rows) * d_v];
            for c0 in (0..d_v).step_by(8) {
                // SAFETY: avx2 + fma per this function's contract; `rows` rows of
                // `p`/`out`, and `c0 + 8 <= d_v` as `d_v` is a multiple of 8.
                unsafe {
                    if rows == 4 {
                        pv_rows::<4, 2>(p_rows, v, d_v, c0, inv_rows, out_rows);
                    } else {
                        pv_rows::<1, 4>(p_rows, v, d_v, c0, inv_rows, out_rows);
                    }
                }
            }
            i += rows;
        }
    }

    /// `R` query rows × columns `c0..c0 + 8` of [`super::scaled_pv`]: keys `U` at a
    /// time, each `V`-row load feeding one broadcast-FMA per row into `R · U`
    /// independent accumulators, which are summed pairwise and scaled by the row's
    /// `1/sum` in the one store.
    ///
    /// # Safety
    ///
    /// CPU must support `avx2` and `fma`; `p.len() == R · n`, `out.len() == R · d_v`,
    /// `inv.len() == R`, `v.len() == n · d_v` and `c0 + 8 <= d_v`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn pv_rows<const R: usize, const U: usize>(
        p: &[f32],
        v: &[f32],
        d_v: usize,
        c0: usize,
        inv: &[f32],
        out: &mut [f32],
    ) {
        let n = v.len() / d_v;
        debug_assert!(p.len() == R * n && out.len() == R * d_v && inv.len() == R);
        debug_assert!(c0 + 8 <= d_v);
        let vp = v.as_ptr();
        let pp = p.as_ptr();
        let mut acc = [[_mm256_setzero_ps(); U]; R];
        let mut j = 0;
        while j + U <= n {
            for u in 0..U {
                // SAFETY: `(j + u) * d_v + c0 + 8 <= n * d_v == v.len()`.
                let vv = unsafe { _mm256_loadu_ps(vp.add((j + u) * d_v + c0)) };
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    // SAFETY: `r * n + j + u < R * n == p.len()`.
                    let pv = unsafe { _mm256_broadcast_ss(&*pp.add(r * n + j + u)) };
                    acc_r[u] = _mm256_fmadd_ps(pv, vv, acc_r[u]);
                }
            }
            j += U;
        }
        for jj in j..n {
            // SAFETY: `jj < n`, as above.
            let vv = unsafe { _mm256_loadu_ps(vp.add(jj * d_v + c0)) };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // SAFETY: `r * n + jj < p.len()`.
                let pv = unsafe { _mm256_broadcast_ss(&*pp.add(r * n + jj)) };
                acc_r[0] = _mm256_fmadd_ps(pv, vv, acc_r[0]);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let mut sum = acc_r[0];
            for &a in &acc_r[1..] {
                sum = _mm256_add_ps(sum, a);
            }
            let scaled = _mm256_mul_ps(sum, _mm256_set1_ps(inv[r]));
            // SAFETY: `r * d_v + c0 + 8 <= R * d_v == out.len()`.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(r * d_v + c0), scaled) };
        }
    }

    /// The AVX2 blocked f32 driver: the same BLIS-style `jc → pc → (parallel) ic`
    /// loop nest as the scalar `gemm_blocked`, with thread-local aligned panel
    /// scratch (zero steady-state allocations) and the FMA microkernel. Accumulates
    /// into `out` (callers zero it first), so the `pc` panel loop composes.
    ///
    /// Caller contract: [`super::simd_available`] returned `true` (this is what
    /// makes the `unsafe` microkernel calls sound).
    pub(crate) fn gemm_f32_avx2(
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        a: Operand<'_>,
        b: Operand<'_>,
    ) {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            let n_tiles = nc.div_ceil(NR);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);

                PANEL_B_F32.with(|cell| {
                    let mut bp = cell.borrow_mut();
                    bp.reset_zeroed(n_tiles * kc * NR);
                    for (t, tile) in bp.chunks_exact_mut(kc * NR).enumerate() {
                        let j0 = jc + t * NR;
                        pack_b_f32(tile, b, kc, pc, j0, NR.min(n - j0));
                    }
                    let bp: &[f32] = &bp;

                    out.par_chunks_mut(MC * n)
                        .enumerate()
                        .for_each(|(panel, c_rows)| {
                            let i0 = panel * MC;
                            let mc = MC.min(m - i0);
                            let m_tiles = mc.div_ceil(MR);

                            PANEL_A_F32.with(|cell| {
                                let mut ap = cell.borrow_mut();
                                ap.reset_zeroed(m_tiles * kc * MR);
                                for (t, tile) in ap.chunks_exact_mut(kc * MR).enumerate() {
                                    let r0 = i0 + t * MR;
                                    pack_a_f32(tile, a, kc, pc, r0, MR.min(m - r0));
                                }

                                for ti in 0..m_tiles {
                                    let a_tile = &ap[ti * kc * MR..(ti + 1) * kc * MR];
                                    let rows_here = MR.min(mc - ti * MR);
                                    for tj in 0..n_tiles {
                                        let b_tile = &bp[tj * kc * NR..(tj + 1) * kc * NR];
                                        let mut acc = [[0.0f32; NR]; MR];
                                        // SAFETY: simd_available() gated the dispatch
                                        // (avx2 + fma present); tile slices are exactly
                                        // kc*MR / kc*NR long and the B panel rows are
                                        // 32-byte aligned (AlignedVec base, 32-byte
                                        // tile stride).
                                        unsafe { microkernel_f32(a_tile, b_tile, kc, &mut acc) };

                                        let j0 = jc + tj * NR;
                                        let cols_here = NR.min(n - j0);
                                        for (i, acc_row) in acc.iter().enumerate().take(rows_here) {
                                            let c_row =
                                                &mut c_rows[(ti * MR + i) * n + j0..][..cols_here];
                                            for (o, &v) in c_row.iter_mut().zip(acc_row.iter()) {
                                                *o += v;
                                            }
                                        }
                                    }
                                }
                            });
                        });
                });
            }
        }
    }

    /// The AVX2 native int8 driver: packs both operands into aligned byte panels and
    /// runs the `maddubs` microkernel, writing exact i32 products into `out`
    /// (overwritten). No depth chunking is needed — integer accumulation is exact up
    /// to the `k ≤ i32::MAX / 127²` bound the callers assert.
    ///
    /// Caller contract: [`super::simd_available`] returned `true`, and **no operand
    /// byte is `-128`** (see [`microkernel_i8`]); `out.len() == m * n`.
    pub(crate) fn gemm_i8_avx2(
        out: &mut [i32],
        m: usize,
        k: usize,
        n: usize,
        a: IntOperand<'_>,
        b: IntOperand<'_>,
    ) {
        out.fill(0);
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let groups = k.div_ceil(KG);
        let n_tiles = n.div_ceil(NR);
        let m_tiles = m.div_ceil(MR);
        PANEL_B_I8.with(|b_cell| {
            let mut bp = b_cell.borrow_mut();
            bp.reset_zeroed(n_tiles * groups * KG * NR);
            for (t, tile) in bp.chunks_exact_mut(groups * KG * NR).enumerate() {
                let j0 = t * NR;
                pack_b_i8(tile, b, k, groups, j0, NR.min(n - j0));
            }
            PANEL_A_I8.with(|a_cell| {
                let mut ap = a_cell.borrow_mut();
                ap.reset_zeroed(groups * KG * MR);
                for ti in 0..m_tiles {
                    let r0 = ti * MR;
                    let rows_here = MR.min(m - r0);
                    pack_a_i8(&mut ap, a, k, groups, r0, rows_here);
                    for (tj, b_tile) in bp.chunks_exact(groups * KG * NR).enumerate() {
                        let mut acc = [[0i32; NR]; MR];
                        // SAFETY: simd_available() gated the dispatch (avx2 present);
                        // panels hold exactly groups*KG*{MR,NR} bytes at 32-byte
                        // aligned bases (AlignedVec, 32-byte group stride).
                        unsafe { microkernel_i8(&ap, b_tile, groups, &mut acc) };

                        let j0 = tj * NR;
                        let cols_here = NR.min(n - j0);
                        for (i, acc_row) in acc.iter().enumerate().take(rows_here) {
                            let c_row = &mut out[(r0 + i) * n + j0..][..cols_here];
                            c_row.copy_from_slice(&acc_row[..cols_here]);
                        }
                    }
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_detection_is_cached_and_consistent() {
        let first = cpu_features();
        let second = cpu_features();
        assert_eq!(first, second);
        assert_eq!(simd_available(), {
            cfg!(all(target_arch = "x86_64", not(force_scalar))) && first.simd_ready()
        });
    }

    #[test]
    fn simd_ready_requires_both_features() {
        assert!(CpuFeatures {
            avx2: true,
            fma: true
        }
        .simd_ready());
        assert!(!CpuFeatures {
            avx2: true,
            fma: false
        }
        .simd_ready());
        assert!(!CpuFeatures {
            avx2: false,
            fma: true
        }
        .simd_ready());
    }
}
