//! Differential pinning of the AVX2/FMA microkernels against the scalar references.
//!
//! Two contracts, straight from the dispatch layer's documentation:
//!
//! * **f32** — the AVX2 kernel may reassociate nothing (it accumulates each output
//!   lane sequentially over `k`, like the scalar kernels) but FMA keeps the
//!   unrounded product, so results may differ from the scalar reference by rounding
//!   only: within `1e-5` across shapes covering every remainder lane of the 8×8
//!   register tile.
//! * **i8** — the native `maddubs` path is exact integer arithmetic and must be
//!   **bit-identical** to the scalar `gemm_i8_into` reference, its only fallback,
//!   including reductions over a thousand deep.
//!
//! On hosts or builds without AVX2/FMA (non-x86, `--cfg force_scalar`, old CPUs) the
//! SIMD entry points report unavailable / fall back; the suite then degenerates to
//! re-checking the scalar paths against themselves, which keeps it green everywhere.

use vitality_tensor::backend::{IntOperand, Operand};
use vitality_tensor::simd::gemm_f32_avx2_direct;
use vitality_tensor::{cpu_features, MatmulBackend};

/// Shapes from the issue spec: every combination straddles a different mix of full
/// and remainder lanes of the MR × NR = 8 × 8 register tile (1 ≪ 8, 7/9 hug the
/// tile edge, 63/64/65 hug the MC panel edge, 196 is the ViT-base token count).
const SPAN: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 196];

/// Deterministic pseudo-random fill, roughly zero-mean with |v| ≤ 0.35 so partial
/// sums stay small and the FMA-vs-scalar rounding divergence stays well inside the
/// 1e-5 differential tolerance even at k = 196.
fn entry(r: usize, c: usize) -> f32 {
    let h = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 97;
    (h as f32 / 97.0 - 0.5) * 0.7
}

fn dense(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut data = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            data[r * cols + c] = f(r, c);
        }
    }
    data
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// i8 fill constrained to [-127, 127]: the native kernel's documented domain (the
/// excluded -128 is a debug-build assertion, pinned below).
fn entry_i8(i: usize, salt: usize) -> i8 {
    (((i * 37 + salt) % 255) as i32 - 127) as i8
}

#[test]
fn f32_simd_kernel_matches_naive_within_1e5_on_all_remainder_lanes() {
    if !cpu_features().simd_ready() {
        eprintln!("skipping SIMD differential sweep: no AVX2/FMA on this host/build");
        return;
    }
    for &m in &SPAN {
        for &k in &SPAN {
            for &n in &SPAN {
                let a = dense(m, k, entry);
                let b = dense(k, n, |r, c| entry(c + 5, r));
                let reference = MatmulBackend::Naive.gemm(
                    m,
                    k,
                    n,
                    Operand::row_major(&a, k),
                    Operand::row_major(&b, n),
                );
                // The raw driver, bypassing the small-product cutoff: this is what
                // pins the microkernel itself on the tiny shapes.
                let mut simd = vec![f32::NAN; m * n];
                assert!(
                    gemm_f32_avx2_direct(
                        &mut simd,
                        m,
                        k,
                        n,
                        Operand::row_major(&a, k),
                        Operand::row_major(&b, n),
                    ),
                    "simd_ready CPU must run the direct driver"
                );
                let diff = max_abs_diff(&simd, &reference);
                assert!(diff <= 1e-5, "avx2 f32 ({m},{k},{n}) diverged by {diff}");
                // And the public dispatch (small shapes route through gemm_small,
                // large ones through the SIMD panels — both must agree).
                let dispatched = MatmulBackend::Avx2.gemm(
                    m,
                    k,
                    n,
                    Operand::row_major(&a, k),
                    Operand::row_major(&b, n),
                );
                let diff = max_abs_diff(&dispatched, &reference);
                assert!(
                    diff <= 1e-5,
                    "Avx2 dispatch ({m},{k},{n}) diverged by {diff}"
                );
            }
        }
    }
}

#[test]
fn f32_simd_kernel_handles_transposed_operands() {
    if !cpu_features().simd_ready() {
        return;
    }
    let (m, k, n) = (65, 196, 63);
    let at = dense(k, m, entry); // A^T stored row-major, participating as A
    let b = dense(k, n, |r, c| entry(r + 11, c));
    let reference = MatmulBackend::Naive.gemm(
        m,
        k,
        n,
        Operand::transposed(&at, m),
        Operand::row_major(&b, n),
    );
    let mut simd = vec![0.0; m * n];
    gemm_f32_avx2_direct(
        &mut simd,
        m,
        k,
        n,
        Operand::transposed(&at, m),
        Operand::row_major(&b, n),
    );
    let diff = max_abs_diff(&simd, &reference);
    assert!(diff <= 1e-5, "transposed-A avx2 f32 diverged by {diff}");
}

#[test]
fn i8_native_kernel_is_bit_identical_to_the_scalar_reference() {
    // Shapes covering every remainder-lane mix, plus reductions straddling the
    // KG = 4 depth grouping and running over a thousand deep.
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (7, 9, 8),
        (8, 196, 8),
        (9, 63, 65),
        (64, 196, 64),
        (3, 1024, 5),
        (8, 1524, 8),
    ] {
        let a: Vec<i8> = (0..m * k).map(|i| entry_i8(i, 11)).collect();
        let b: Vec<i8> = (0..k * n).map(|i| entry_i8(i, 7)).collect();
        let mut reference = vec![0i32; m * n];
        MatmulBackend::Blocked.gemm_i8_into(
            &mut reference,
            m,
            k,
            n,
            IntOperand::row_major(&a, k),
            IntOperand::row_major(&b, n),
        );

        let mut native = vec![i32::MIN; m * n];
        let ran = MatmulBackend::Avx2.gemm_i8_native_clamped_into(
            &mut native,
            m,
            k,
            n,
            IntOperand::row_major(&a, k),
            IntOperand::row_major(&b, n),
        );
        if cpu_features().simd_ready() {
            assert!(ran, "in-domain operands must take the native path");
            assert_eq!(
                native, reference,
                "native i8 ({m},{k},{n}) not bit-identical"
            );
        } else {
            assert!(!ran, "native path must refuse without AVX2/FMA");
        }
    }
}

#[test]
fn i8_native_kernel_handles_transposed_operands_bit_identically() {
    // A^T stored row-major (k × m) — the attention kernels' G = K̂ᵀV shape, at the
    // served head width d = 8 for n = 196 and n = 1024 tokens, plus a wide tile.
    for &(m, k, n) in &[(64usize, 196usize, 64usize), (8, 196, 8), (8, 1024, 8)] {
        let at: Vec<i8> = (0..k * m).map(|i| entry_i8(i, 29)).collect();
        let b: Vec<i8> = (0..k * n).map(|i| entry_i8(i, 13)).collect();
        let mut reference = vec![0i32; m * n];
        MatmulBackend::Blocked.gemm_i8_into(
            &mut reference,
            m,
            k,
            n,
            IntOperand::transposed(&at, m),
            IntOperand::row_major(&b, n),
        );
        let mut native = vec![0i32; m * n];
        let ran = MatmulBackend::Avx2.gemm_i8_native_clamped_into(
            &mut native,
            m,
            k,
            n,
            IntOperand::transposed(&at, m),
            IntOperand::row_major(&b, n),
        );
        if cpu_features().simd_ready() {
            assert!(ran);
            assert_eq!(
                native, reference,
                "transposed native i8 ({m},{k},{n}) not bit-identical"
            );
        }
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "outside the maddubs domain")]
fn clamped_native_entry_asserts_the_minus_128_contract_in_debug_builds() {
    // -128 is the one i8 value the abs/sign maddubs idiom cannot represent
    // (`_mm256_sign_epi8` negation wraps); debug builds reject it on every host.
    let (m, k, n) = (9usize, 65usize, 7usize);
    let mut a: Vec<i8> = (0..m * k).map(|i| entry_i8(i, 3)).collect();
    let b: Vec<i8> = (0..k * n).map(|i| entry_i8(i, 17)).collect();
    a[m * k / 2] = i8::MIN;
    let mut out = vec![0i32; m * n];
    MatmulBackend::Avx2.gemm_i8_native_clamped_into(
        &mut out,
        m,
        k,
        n,
        IntOperand::row_major(&a, k),
        IntOperand::row_major(&b, n),
    );
}

#[test]
fn quantization_sweeps_match_their_scalar_references_bit_for_bit() {
    use vitality_tensor::simd::{
        absmax, absmax_scalar, i8_column_sums, i8_column_sums_scalar, quantize_i8,
        quantize_i8_scalar, quantize_lattice, quantize_lattice_scalar,
    };
    // Lengths straddling the 32-lane i8 block, the 8-lane f32 block and their
    // scalar tails; values spanning the clamp (±127 saturation) on both sides.
    for &len in &[0usize, 1, 7, 8, 31, 32, 33, 255, 256, 12544] {
        let src: Vec<f32> = (0..len)
            .map(|i| ((i % 613) as f32 / 613.0 - 0.5) * 300.0)
            .collect();
        assert_eq!(
            absmax(&src).to_bits(),
            absmax_scalar(&src).to_bits(),
            "absmax diverged at len {len}"
        );
        let inv = 127.0 / 104.2;
        let mut simd_i8 = vec![0i8; len];
        let mut scalar_i8 = vec![0i8; len];
        quantize_i8(&src, inv, &mut simd_i8);
        quantize_i8_scalar(&src, inv, &mut scalar_i8);
        assert_eq!(simd_i8, scalar_i8, "quantize_i8 diverged at len {len}");

        let mut simd_lat = vec![0f32; len];
        let mut scalar_lat = vec![0f32; len];
        quantize_lattice(&src, inv, &mut simd_lat);
        quantize_lattice_scalar(&src, inv, &mut scalar_lat);
        let simd_bits: Vec<u32> = simd_lat.iter().map(|v| v.to_bits()).collect();
        let scalar_bits: Vec<u32> = scalar_lat.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            simd_bits, scalar_bits,
            "quantize_lattice diverged at len {len}"
        );

        // The i8 lattice and the widened f32 lattice must describe the same grid
        // points (the two views feed different downstream kernels).
        for (i, (&q, &l)) in simd_i8.iter().zip(&simd_lat).enumerate() {
            assert_eq!(f32::from(q), l, "grid views disagree at {i} (len {len})");
        }
    }
    // Column sums over shapes hitting the 64-column register budget, the 8-lane
    // step and the scalar column tail.
    for &(rows, cols) in &[
        (1usize, 1usize),
        (3, 7),
        (5, 8),
        (9, 63),
        (196, 64),
        (17, 130),
    ] {
        let data: Vec<i8> = (0..rows * cols).map(|i| entry_i8(i, 23)).collect();
        let mut simd_sums = vec![i32::MIN; cols];
        let mut scalar_sums = vec![0i32; cols];
        i8_column_sums(&data, &mut simd_sums);
        i8_column_sums_scalar(&data, &mut scalar_sums);
        assert_eq!(
            simd_sums, scalar_sums,
            "i8_column_sums diverged at ({rows},{cols})"
        );
    }
}

#[test]
fn avx2_dispatch_on_unsupported_hosts_still_computes_correct_products() {
    // Explicit Avx2 requests must degrade, not panic, wherever the features are
    // missing; where they are present this doubles as one more dispatch check.
    let (m, k, n) = (33, 65, 17);
    let a = dense(m, k, entry);
    let b = dense(k, n, |r, c| entry(c, r));
    let via_avx2 = MatmulBackend::Avx2.gemm(
        m,
        k,
        n,
        Operand::row_major(&a, k),
        Operand::row_major(&b, n),
    );
    let reference = MatmulBackend::Naive.gemm(
        m,
        k,
        n,
        Operand::row_major(&a, k),
        Operand::row_major(&b, n),
    );
    let diff = max_abs_diff(&via_avx2, &reference);
    assert!(diff <= 1e-5, "Avx2 dispatch diverged by {diff}");
}

/// Lengths straddling the 8-lane step, the 32-key logit step and their tails, up to
/// the served token counts.
const SWEEP_LENGTHS: [usize; 14] = [0, 1, 3, 7, 8, 9, 31, 32, 33, 63, 196, 1000, 1023, 1024];

#[test]
fn exp_sum_sweep_is_bit_identical_to_its_scalar_twin() {
    use vitality_tensor::simd::{shifted_exp_sum, shifted_exp_sum_scalar};
    for &len in &SWEEP_LENGTHS {
        // Logit-like rows: a spread of ±40 around an offset, so the shift, the
        // exponentials down to ~e^-80 and the lane/tail sums all get exercised.
        let row: Vec<f32> = (0..len)
            .map(|i| ((i * 7919 % 1013) as f32 / 1013.0 - 0.5) * 80.0 + 3.25)
            .collect();
        let mut simd = row.clone();
        let mut scalar = row.clone();
        let simd_sum = shifted_exp_sum(&mut simd);
        let scalar_sum = shifted_exp_sum_scalar(&mut scalar);
        assert_eq!(
            simd_sum.to_bits(),
            scalar_sum.to_bits(),
            "exp sweep sum diverged at len {len}: {simd_sum} vs {scalar_sum}"
        );
        let simd_bits: Vec<u32> = simd.iter().map(|v| v.to_bits()).collect();
        let scalar_bits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            simd_bits, scalar_bits,
            "exp sweep values diverged at len {len}"
        );
        if len > 0 {
            assert!(simd.iter().all(|&e| (0.0..=1.0).contains(&e)));
            assert!(simd_sum >= 1.0, "the row maximum contributes exp(0) = 1");
        } else {
            assert_eq!(simd_sum, 0.0);
        }
    }
}

#[test]
fn exp_sweep_holds_its_documented_error_bound_on_the_softmax_domain() {
    use vitality_tensor::simd::{shifted_exp_sum, shifted_exp_sum_scalar, EXP_MAX_REL_ERROR};
    // A dense grid over [-87, 0] plus both end points. The leading 0.0 makes the
    // row maximum 0, so every output is exp(x) itself.
    let steps = 200_000;
    let mut xs: Vec<f32> = vec![0.0];
    xs.extend((0..=steps).map(|i| -87.0 * i as f32 / steps as f32));
    xs.push(-87.0);
    for sweep in [shifted_exp_sum, shifted_exp_sum_scalar] {
        let mut out = xs.clone();
        sweep(&mut out);
        let worst = xs
            .iter()
            .zip(&out)
            .map(|(&x, &e)| {
                let exact = f64::from(x).exp();
                (f64::from(e) - exact).abs() / exact
            })
            .fold(0.0f64, f64::max);
        assert!(
            worst <= EXP_MAX_REL_ERROR,
            "exp sweep relative error {worst:e} exceeds the documented {EXP_MAX_REL_ERROR:e}"
        );
    }
}

#[test]
fn exp_sweep_handles_uniform_and_dominated_rows() {
    use vitality_tensor::simd::shifted_exp_sum;
    for &len in &[1usize, 9, 196, 1000, 1024] {
        // All-equal logits: every exp(0) is exactly 1, so the sum is exactly n.
        let mut flat = vec![-12.5f32; len];
        let sum = shifted_exp_sum(&mut flat);
        assert_eq!(sum, len as f32, "uniform row of {len}");
        assert!(flat.iter().all(|&e| e == 1.0));
        // One dominant logit: the rest underflow to (almost) zero.
        let mut sharp = vec![-500.0f32; len];
        sharp[len / 2] = 400.0;
        let sum = shifted_exp_sum(&mut sharp);
        assert!(
            (1.0..=1.0 + f32::EPSILON).contains(&sum),
            "dominated row of {len}: {sum}"
        );
        assert_eq!(sharp[len / 2], 1.0);
        assert!(sharp
            .iter()
            .enumerate()
            .all(|(j, &e)| j == len / 2 || (0.0..1e-30).contains(&e)));
    }
}

#[test]
fn logit_and_pv_sweeps_match_their_scalar_twins_within_1e5() {
    use vitality_tensor::simd::{scaled_logits, scaled_logits_scalar, scaled_pv, scaled_pv_scalar};
    for &d in &[1usize, 8, 12, 16] {
        for &rows in &[1usize, 7, 64] {
            for &n in &SWEEP_LENGTHS {
                let q = dense(rows, d, entry);
                let kt = dense(d, n, |r, c| entry(c + 3, r));
                let scale = 1.0 / (d as f32).sqrt();
                let mut simd = vec![f32::NAN; rows * n];
                let mut scalar = vec![f32::NAN; rows * n];
                scaled_logits(&q, d, &kt, scale, &mut simd);
                scaled_logits_scalar(&q, d, &kt, scale, &mut scalar);
                let diff = max_abs_diff(&simd, &scalar);
                assert!(
                    diff <= 1e-5,
                    "logits (rows {rows}, d {d}, n {n}) diverged by {diff}"
                );
                assert!(simd.iter().all(|x| x.is_finite()), "logits left unwritten");

                // Probability-like weights and the row normalisers of a softmax.
                let p = dense(rows, n, |r, c| entry(r, c) + 0.35);
                let v = dense(n, d, |r, c| entry(r + 1, c));
                let inv: Vec<f32> = (0..rows).map(|r| 1.0 / (1.0 + r as f32)).collect();
                let mut simd = vec![f32::NAN; rows * d];
                let mut scalar = vec![f32::NAN; rows * d];
                scaled_pv(&p, &v, d, &inv, &mut simd);
                scaled_pv_scalar(&p, &v, d, &inv, &mut scalar);
                let diff = max_abs_diff(&simd, &scalar);
                assert!(
                    diff <= 1e-5,
                    "P·V (rows {rows}, d {d}, n {n}) diverged by {diff}"
                );
                assert!(simd.iter().all(|x| x.is_finite()), "P·V left unwritten");
            }
        }
    }
}

/// Lengths for the GELU sweep: every tail of the 8-lane step, the lanes around 64
/// (the served MLP width) and whole hidden activations of the served shapes.
fn gelu_lengths() -> impl Iterator<Item = usize> {
    (0..=17).chain([63, 64, 65, 1000, 65_536])
}

/// A bias width that splits `len` into several rows with a column tail where the
/// length allows it (125 → tail 5, 21 → 5, 13 → 5), else one row of `len`.
fn gelu_bias_width(len: usize) -> usize {
    [125, 64, 21, 13]
        .into_iter()
        .find(|&w| len >= w && len.is_multiple_of(w))
        .unwrap_or(len)
}

/// The tanh-approximate GELU in f64, the reference for [`GELU_MAX_ABS_ERROR`].
///
/// [`GELU_MAX_ABS_ERROR`]: vitality_tensor::simd::GELU_MAX_ABS_ERROR
fn gelu_f64(x: f32) -> f64 {
    let x = f64::from(x);
    let c = (2.0 / std::f64::consts::PI).sqrt();
    0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
}

#[test]
fn gelu_sweep_is_bit_identical_to_its_scalar_twin() {
    use vitality_tensor::simd::{gelu, gelu_scalar};
    for len in gelu_lengths() {
        // Pre-activations over [-12, 12]: both saturated ends and the curved middle.
        let xs: Vec<f32> = (0..len)
            .map(|i| ((i * 7919 % 1013) as f32 / 1013.0 - 0.5) * 24.0)
            .collect();
        let width = gelu_bias_width(len);
        let bias: Vec<f32> = (0..width).map(|j| (j as f32 * 0.37).sin()).collect();
        for bias in [None, Some(bias.as_slice())] {
            let mut simd = xs.clone();
            let mut scalar = xs.clone();
            gelu(&mut simd, bias);
            gelu_scalar(&mut scalar, bias);
            let simd_bits: Vec<u32> = simd.iter().map(|v| v.to_bits()).collect();
            let scalar_bits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                simd_bits,
                scalar_bits,
                "gelu sweep diverged at len {len}, bias {}",
                bias.is_some()
            );
            // The bias is added before the activation, column by column.
            for (i, (&x, &y)) in xs.iter().zip(&simd).enumerate() {
                let pre = x + bias.map_or(0.0, |b| b[i % width]);
                let exact = gelu_f64(pre);
                assert!(
                    (f64::from(y) - exact).abs() <= 1e-6,
                    "gelu({pre}) = {y}, expected {exact} (len {len})"
                );
            }
        }
    }
}

#[test]
fn gelu_sweep_holds_its_documented_error_bound() {
    use vitality_tensor::simd::{gelu, gelu_scalar, GELU_MAX_ABS_ERROR};
    // A dense grid over [-10, 10], end points included.
    let steps = 400_000;
    let xs: Vec<f32> = (0..=steps)
        .map(|i| -10.0 + 20.0 * i as f32 / steps as f32)
        .collect();
    for sweep in [gelu, gelu_scalar] {
        let mut out = xs.clone();
        sweep(&mut out, None);
        let worst = xs
            .iter()
            .zip(&out)
            .map(|(&x, &y)| (f64::from(y) - gelu_f64(x)).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst <= GELU_MAX_ABS_ERROR,
            "gelu absolute error {worst:e} exceeds the documented {GELU_MAX_ABS_ERROR:e}"
        );
    }
}

#[test]
fn gelu_sweep_keeps_extreme_inputs_finite() {
    use vitality_tensor::simd::{gelu, gelu_scalar};
    let extremes = [
        0.0f32,
        -0.0,
        1e30,
        -1e30,
        f32::MAX,
        -f32::MAX,
        1e37,
        -1e37,
        20.0,
        -20.0,
    ];
    // Long enough that every value lands in a vector lane and in the tail.
    let xs: Vec<f32> = extremes.iter().cycle().take(29).copied().collect();
    let mut simd = xs.clone();
    let mut scalar = xs.clone();
    gelu(&mut simd, None);
    gelu_scalar(&mut scalar, None);
    for ((&x, &y), &z) in xs.iter().zip(&simd).zip(&scalar) {
        assert_eq!(y.to_bits(), z.to_bits(), "gelu({x}) diverged: {y} vs {z}");
        assert!(y.is_finite(), "gelu({x}) = {y}");
        if x > 0.0 {
            assert_eq!(y, x, "gelu goes to x on the positive side");
        } else {
            assert!(y.abs() < 1e-30, "gelu({x}) = {y} should be ≈ 0");
        }
    }
}
