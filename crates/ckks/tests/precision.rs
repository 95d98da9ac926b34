//! End-to-end CKKS precision regression, pinned per NTT kernel.
//!
//! Walks the canonical pipeline — encode → encrypt → multiply →
//! rotate → rescale → decrypt — under every NTT kernel generation and
//! pins the observed error against fixed bounds. Because all kernels
//! are bit-identical and the whole pipeline is deterministic given
//! the RNG seed, the decrypted floating-point outputs must also match
//! *exactly* across kernels; any drift in precision or cross-kernel
//! divergence fails loudly rather than eroding silently.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_ckks::{CkksContext, Evaluator, KeySet, SecretKey};
use ufc_math::ntt::NttKernel;

/// Pinned worst-case slot errors for the fixed seed below. The
/// observed values are ≈ 1–2·10⁻⁸ (Δ = 2³⁴, 36-bit limbs); the
/// bounds leave ~50× headroom, so they tolerate benign encoder
/// tweaks but trip on any real precision regression — a lost
/// rescale, a mis-scaled twiddle, a broken kernel.
const ROUNDTRIP_BOUND: f64 = 1e-6;
const MUL_RESCALE_BOUND: f64 = 1e-6;
const ROTATE_BOUND: f64 = 1e-6;

const SEED: u64 = 0xC0FFEE;
const ROT_STEP: isize = 3;

fn max_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

struct PipelineOut {
    roundtrip: Vec<f64>,
    product: Vec<f64>,
    rotated: Vec<f64>,
}

/// Runs the full pipeline under one kernel. Everything (keys, noise,
/// ciphertexts) is re-derived from the same seed, so outputs are
/// comparable bit-for-bit across kernels.
fn pipeline(kernel: NttKernel) -> PipelineOut {
    let ctx = CkksContext::new(32, 3, 2, 2, 36, 34).with_ntt_kernel(kernel);
    let mut rng = StdRng::seed_from_u64(SEED);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let mut keys = KeySet::generate(&ctx, &sk, &mut rng);
    keys.gen_rotation_key(&ctx, &sk, ROT_STEP, &mut rng);
    let ev = Evaluator::new(ctx);

    let slots = ev.context().slots();
    let a: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.37).sin()).collect();
    let b: Vec<f64> = (0..slots).map(|i| 1.5 - (i as f64 * 0.11)).collect();
    let ca = ev.encrypt_real(&a, &keys, &mut rng);
    let cb = ev.encrypt_real(&b, &keys, &mut rng);

    let roundtrip = ev.decrypt_real(&ca, &sk);
    assert!(
        max_err(&roundtrip, &a) < ROUNDTRIP_BOUND,
        "encrypt/decrypt roundtrip error {} exceeds {ROUNDTRIP_BOUND} under {kernel}",
        max_err(&roundtrip, &a)
    );

    let product = ev.decrypt_real(&ev.rescale(&ev.mul(&ca, &cb, &keys)), &sk);
    let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
    assert!(
        max_err(&product, &expect) < MUL_RESCALE_BOUND,
        "mul+rescale error {} exceeds {MUL_RESCALE_BOUND} under {kernel}",
        max_err(&product, &expect)
    );

    let rotated = ev.decrypt_real(&ev.rotate(&ca, ROT_STEP, &keys), &sk);
    let expect: Vec<f64> = (0..slots)
        .map(|i| a[(i + ROT_STEP as usize) % slots])
        .collect();
    assert!(
        max_err(&rotated, &expect) < ROTATE_BOUND,
        "rotation error {} exceeds {ROTATE_BOUND} under {kernel}",
        max_err(&rotated, &expect)
    );

    PipelineOut {
        roundtrip,
        product,
        rotated,
    }
}

#[test]
fn precision_pinned_and_bit_identical_across_kernels() {
    // The 36-bit limbs here sit inside the IFMA window, so the IFMA
    // generation joins the sweep — on hosts without AVX-512 IFMA it
    // runs the bit-identical portable mirror lanes, which is exactly
    // the leg non-IFMA CI needs pinned.
    let reference = pipeline(NttKernel::Reference);
    for kernel in [NttKernel::Radix4, NttKernel::Ifma] {
        let out = pipeline(kernel);
        assert_eq!(
            out.roundtrip, reference.roundtrip,
            "decrypted roundtrip under {kernel} diverged from the reference kernel"
        );
        assert_eq!(
            out.product, reference.product,
            "decrypted product under {kernel} diverged from the reference kernel"
        );
        assert_eq!(
            out.rotated, reference.rotated,
            "decrypted rotation under {kernel} diverged from the reference kernel"
        );
    }
}
