//! TFHE gate conformance across NTT kernel generations.
//!
//! Every two-input gate is exercised over its full truth table for
//! several key/noise seeds, once per NTT kernel. Because all kernels
//! are bit-identical and every other step is deterministic given the
//! RNG stream, the *ciphertexts* — not just the decrypted booleans —
//! must match exactly across kernels.
//!
//! The test iterates all three kernels and asserts ciphertext
//! equality — the 31-bit TFHE primes sit inside the IFMA window, so
//! the IFMA generation runs everywhere (portable mirror lanes on hosts
//! without AVX-512 IFMA).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_math::ntt::NttKernel;
use ufc_tfhe::context::TfheContext;
use ufc_tfhe::gates::{apply_gate, decrypt_bool, encrypt_bool, Gate};
use ufc_tfhe::keys::TfheKeys;

const SEEDS: [u64; 4] = [0xA11CE, 0xB0B, 0xCAFE, 0xD00D];

/// Runs the exhaustive gate truth-table sweep for one seed under one
/// kernel, returning every output ciphertext for cross-kernel
/// comparison.
fn gate_sweep(kernel: NttKernel, seed: u64) -> Vec<ufc_tfhe::lwe::LweCiphertext> {
    let ctx = TfheContext::new(64, 256, 7, 3, 6, 4).with_ntt_kernel(kernel);
    assert_eq!(ctx.ntt_kernel(), kernel);
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = TfheKeys::generate(&ctx, &mut rng);
    let mut outputs = Vec::new();
    for gate in Gate::ALL {
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let ca = encrypt_bool(&ctx, &keys, a, &mut rng);
            let cb = encrypt_bool(&ctx, &keys, b, &mut rng);
            let out = apply_gate(&ctx, &keys, gate, &ca, &cb);
            assert_eq!(
                decrypt_bool(&ctx, &keys, &out),
                gate.eval(a, b),
                "{gate:?}({a}, {b}) wrong under {kernel} kernel, seed {seed:#x}"
            );
            outputs.push(out);
        }
    }
    outputs
}

#[test]
fn all_gates_exhaustive_under_every_kernel() {
    for seed in SEEDS {
        let reference = gate_sweep(NttKernel::Reference, seed);
        for kernel in [NttKernel::Radix4, NttKernel::Ifma] {
            let outputs = gate_sweep(kernel, seed);
            assert_eq!(
                outputs, reference,
                "gate output ciphertexts under {kernel} diverged from the \
                 reference kernel for seed {seed:#x}"
            );
        }
    }
}
