//! Homomorphic SHA-256 conformance across NTT kernel generations.
//!
//! One reduced-width compression round is evaluated homomorphically
//! — every bootstrapped gate of the circuit — once per NTT kernel.
//! All kernels are bit-identical and the rest of the pipeline is
//! deterministic given the RNG stream, so the output *ciphertexts*
//! (not just the decrypted digest bits) must match exactly across
//! kernels; the decrypted state is additionally checked against the
//! plaintext reference compression.
//!
//! The same round is also evaluated at 1 and at 4 worker threads:
//! `eval_encrypted` fans each ASAP level's bootstraps out over
//! workers, and its output ciphertexts must not depend on how many.
//!
//! The kernel test iterates all three kernels and asserts cross-kernel
//! ciphertext equality (the 31-bit TFHE primes sit inside the IFMA
//! window, so the IFMA generation runs everywhere — portable mirror
//! lanes without the hardware). `#[ignore]`d like the rest of the
//! homomorphic suite: hundreds of host bootstraps per kernel, run by
//! the release-mode `sha256-smoke` job.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_math::ntt::NttKernel;
use ufc_math::par::set_max_threads;
use ufc_tfhe::gates::{decrypt_bool, encrypt_bool};
use ufc_tfhe::{LweCiphertext, TfheContext, TfheKeys};
use ufc_workloads::sha256::{circuit, reference, AdderKind, ShaParams};

const SEED: u64 = 0x51A2_5600;

fn params() -> ShaParams {
    ShaParams::new(8, 1)
}

/// Runs one homomorphic compression round under one kernel,
/// returning the output state ciphertexts for cross-kernel
/// comparison. The decrypted state is oracle-checked inline.
fn round_sweep(kernel: NttKernel) -> Vec<LweCiphertext> {
    let p = params();
    let ctx = TfheContext::new(64, 256, 7, 3, 6, 4).with_ntt_kernel(kernel);
    assert_eq!(ctx.ntt_kernel(), kernel);
    let mut rng = StdRng::seed_from_u64(SEED);
    let keys = TfheKeys::generate(&ctx, &mut rng);

    let c = circuit::compression_circuit(&p, AdderKind::Ripple, None);
    let block = reference::pad(&p, b"abc");
    assert_eq!(block.len(), p.block_bytes(), "one padded block");

    let mut input_bits = circuit::state_input_bits(&p, &p.h0());
    input_bits.extend(circuit::block_input_bits(&p, &block));
    let inputs: Vec<LweCiphertext> = input_bits
        .into_iter()
        .map(|bit| encrypt_bool(&ctx, &keys, bit, &mut rng))
        .collect();
    let outputs = c.eval_encrypted(&ctx, &keys, &inputs);

    let bits: Vec<bool> = outputs
        .iter()
        .map(|ct| decrypt_bool(&ctx, &keys, ct))
        .collect();
    let mut want = p.h0();
    reference::compress(&p, &mut want, &block);
    assert_eq!(
        circuit::state_from_bits(&p, &bits),
        want,
        "homomorphic compression wrong under {kernel} kernel"
    );
    outputs
}

#[test]
#[ignore = "hundreds of host bootstraps per kernel; release-mode sha256-smoke CI job"]
fn hom_round_bit_identical_across_kernels() {
    let reference_cts = round_sweep(NttKernel::Reference);
    for kernel in [NttKernel::Radix4, NttKernel::Ifma] {
        assert_eq!(
            round_sweep(kernel),
            reference_cts,
            "SHA-256 round ciphertexts under {kernel} diverged from the reference kernel"
        );
    }
}

#[test]
#[ignore = "hundreds of host bootstraps per thread count; release-mode sha256-smoke CI job"]
fn hom_round_bit_identical_across_thread_counts() {
    let prev = set_max_threads(1);
    let serial = round_sweep(NttKernel::Radix4);
    set_max_threads(4);
    let parallel = round_sweep(NttKernel::Radix4);
    set_max_threads(prev);
    assert_eq!(
        parallel, serial,
        "SHA-256 round ciphertexts at 4 threads diverged from 1 thread"
    );
}
