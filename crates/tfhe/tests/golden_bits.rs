//! Output-bit pins for the TFHE pipeline.
//!
//! Every gate's full truth table and one programmable bootstrap run
//! under a fixed seed; the output ciphertexts are hashed with a
//! 64-bit FNV-1a written out below (not `DefaultHasher`, whose
//! algorithm may change between toolchains) and compared against
//! recorded digests. Any change to the container, kernel dispatch or
//! loop order of the scheme layer that alters a single output word
//! trips these tests; a refactor that keeps them green is bit-exact.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ufc_tfhe::gates::{apply_gate, encrypt_bool, Gate};
use ufc_tfhe::{
    lut_test_vector, programmable_bootstrap, programmable_bootstrap_batch, LweCiphertext,
    TfheContext, TfheKeys,
};

const SEED: u64 = 0x601D_B175;

/// Digest of the 24 gate outputs (`Gate::ALL` × four input pairs).
const GATES_DIGEST: u64 = 0xba8f_b49f_6e40_fdab;
/// Digest of the four LUT bootstrap outputs, one call each or as one
/// batch.
const PBS_DIGEST: u64 = 0x7542_fb63_a76d_6852;

/// 64-bit FNV-1a over the little-endian bytes of each word.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn lwe(&mut self, ct: &LweCiphertext) {
        self.word(ct.a.len() as u64);
        for &x in &ct.a {
            self.word(x);
        }
        self.word(ct.b);
        self.word(ct.q);
    }
}

fn setup() -> (TfheContext, TfheKeys, StdRng) {
    let ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
    let mut rng = StdRng::seed_from_u64(SEED);
    let keys = TfheKeys::generate(&ctx, &mut rng);
    (ctx, keys, rng)
}

#[test]
fn gate_outputs_are_bit_exact() {
    let (ctx, keys, mut rng) = setup();
    let mut h = Fnv1a::new();
    for gate in Gate::ALL {
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let ca = encrypt_bool(&ctx, &keys, a, &mut rng);
            let cb = encrypt_bool(&ctx, &keys, b, &mut rng);
            h.lwe(&apply_gate(&ctx, &keys, gate, &ca, &cb));
        }
    }
    assert_eq!(h.0, GATES_DIGEST, "gate outputs changed: {:#018x}", h.0);
}

#[test]
fn lut_bootstrap_outputs_are_bit_exact() {
    let (ctx, keys, mut rng) = setup();
    let tv = lut_test_vector(&ctx, |m| (3 * m + 1) % 8, 8);
    let mut h = Fnv1a::new();
    for m in 0..4u64 {
        let ct = LweCiphertext::encrypt(&ctx, &keys.lwe_sk, ctx.encode(m, 8), &mut rng);
        h.lwe(&programmable_bootstrap(&ctx, &keys, &ct, &tv));
    }
    assert_eq!(h.0, PBS_DIGEST, "bootstrap outputs changed: {:#018x}", h.0);
}

#[test]
fn lut_bootstrap_batch_matches_per_call_digest() {
    let (ctx, keys, mut rng) = setup();
    let tv = lut_test_vector(&ctx, |m| (3 * m + 1) % 8, 8);
    let cts: Vec<LweCiphertext> = (0..4u64)
        .map(|m| LweCiphertext::encrypt(&ctx, &keys.lwe_sk, ctx.encode(m, 8), &mut rng))
        .collect();
    let mut h = Fnv1a::new();
    for out in programmable_bootstrap_batch(&ctx, &keys, &cts, &tv) {
        h.lwe(&out);
    }
    assert_eq!(
        h.0, PBS_DIGEST,
        "batch bootstrap outputs changed: {:#018x}",
        h.0
    );
}
