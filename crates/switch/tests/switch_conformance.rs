//! Scheme-switch conformance across NTT kernel generations.
//!
//! Two pins, both run once per NTT kernel:
//!
//! * **Extraction**: `extract_batch` must be **bit-identical** to the
//!   per-index `extract` path for random index sets — the batched
//!   digit-major accumulation is an exact reordering of the per-index
//!   `Z_q` sums, so every mask word and body must match.
//! * **Repacking**: BSGS `repack` must agree with the naive n-step
//!   `repack_naive` within the existing 0.02 slot tolerance (hoisted
//!   rotations differ from plain ones only by key-switching noise).
//!
//! A third pin, kernel-independent: the outputs of both extraction
//! paths at the `bench_switch` shape hash to a recorded digest, so a
//! change to the key layout, key generation or accumulation order
//! that alters a single output word fails here even when both paths
//! still agree with each other.
//!
//! The sweep iterates all three kernels (the 31/36-bit moduli here sit
//! inside the IFMA window, so the IFMA generation runs everywhere —
//! portable mirror lanes on hosts without AVX-512 IFMA).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ufc_ckks::{CkksContext, Evaluator as CkksEvaluator, KeySet, SecretKey};
use ufc_math::ntt::NttKernel;
use ufc_switch::{CkksToLwe, LweToCkks};
use ufc_tfhe::{LweCiphertext, TfheContext, TfheKeys};

/// Extraction conformance under one kernel: random index sets must
/// produce bit-identical LWEs on both paths.
fn extract_sweep(kernel: NttKernel) {
    let ckks_ctx = CkksContext::new(64, 3, 2, 2, 36, 34).with_ntt_kernel(kernel);
    let mut rng = StdRng::seed_from_u64(0x5EED0 + kernel as u64);
    let sk = SecretKey::generate(&ckks_ctx, &mut rng);
    let keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
    let tfhe_ctx = TfheContext::new(64, 256, 7, 3, 6, 4).with_ntt_kernel(kernel);
    let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
    let bridge = CkksToLwe::new(&ckks_ctx, &sk, &tfhe_ctx, &tfhe_keys, &mut rng);
    let n = ckks_ctx.n();
    let ev = CkksEvaluator::new(ckks_ctx);

    let messages: Vec<u64> = (0..n as u64).map(|i| (i * 5) % 8).collect();
    let pt = ufc_switch::extract::encode_coefficients(ev.context(), &messages, 8);
    let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);

    for round in 0..12 {
        let len = rng.gen_range(1..=16);
        let indices: Vec<usize> = (0..len).map(|_| rng.gen_range(0..n)).collect();
        let per_index = bridge
            .extract(&ev, &ct, &indices, &tfhe_ctx)
            .expect("indices in range");
        let batched = bridge
            .extract_batch(&ev, &ct, &indices, &tfhe_ctx)
            .expect("indices in range");
        assert_eq!(
            per_index, batched,
            "batched extraction diverged from the per-index path under \
             {kernel} kernel, round {round}, indices {indices:?}"
        );
    }
}

/// Digest of `extract` / `extract_batch` outputs at the `bench_switch`
/// shape for [`DIGEST_INDICES`] under seed `0xE57AC7`.
const EXTRACT_DIGEST: u64 = 0x37de_7290_b814_8557;

/// Fixed index set: ring ends, interior positions and a repeat. Every
/// index below `N − 1` gathers part of its mask across the negacyclic
/// wrap; index 0 gathers all of it.
const DIGEST_INDICES: [usize; 7] = [0, 1, 5, 13, 33, 63, 5];

/// 64-bit FNV-1a over the little-endian bytes of each word (the same
/// hash as `ufc-tfhe`'s `golden_bits.rs`).
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

    fn lwes(mut self, cts: &[LweCiphertext]) -> u64 {
        for ct in cts {
            self.word(ct.a.len() as u64);
            for &x in &ct.a {
                self.word(x);
            }
            self.word(ct.b);
            self.word(ct.q);
        }
        self.0
    }
}

#[test]
fn extraction_outputs_match_recorded_digest() {
    // CKKS ring 64, TFHE n = 64 / N = 256: the bench_switch shape.
    let ckks_ctx = CkksContext::new(64, 3, 2, 2, 36, 34);
    let mut rng = StdRng::seed_from_u64(0xE57AC7);
    let sk = SecretKey::generate(&ckks_ctx, &mut rng);
    let keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
    let tfhe_ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
    let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
    let bridge = CkksToLwe::new(&ckks_ctx, &sk, &tfhe_ctx, &tfhe_keys, &mut rng);
    let ev = CkksEvaluator::new(ckks_ctx);
    let messages: Vec<u64> = (0..ev.context().n() as u64).map(|i| i % 8).collect();
    let pt = ufc_switch::extract::encode_coefficients(ev.context(), &messages, 8);
    let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);

    let per_index = bridge
        .extract(&ev, &ct, &DIGEST_INDICES, &tfhe_ctx)
        .expect("indices in range");
    let batched = bridge
        .extract_batch(&ev, &ct, &DIGEST_INDICES, &tfhe_ctx)
        .expect("indices in range");
    let h = Fnv1a::new().lwes(&per_index);
    assert_eq!(h, EXTRACT_DIGEST, "extract outputs changed: {h:#018x}");
    let h = Fnv1a::new().lwes(&batched);
    assert_eq!(
        h, EXTRACT_DIGEST,
        "extract_batch outputs changed: {h:#018x}"
    );
}

/// An LWE with reduced-range masks so repack wrap counts stay small
/// (same construction the repack unit tests use).
fn small_mask_lwe<R: Rng + ?Sized>(
    ctx: &TfheContext,
    keys: &TfheKeys,
    m: u64,
    rng: &mut R,
) -> LweCiphertext {
    let q = ctx.q();
    let a: Vec<u64> = (0..ctx.lwe_dim())
        .map(|_| rng.gen_range(0..q / 64))
        .collect();
    let dot = a.iter().zip(&keys.lwe_sk).fold(0u64, |acc, (&ai, &si)| {
        ufc_math::modops::add_mod(acc, ufc_math::modops::mul_mod(ai, si, q), q)
    });
    let b = ufc_math::modops::add_mod(dot, ctx.encode(m, 16), q);
    LweCiphertext { a, b, q }
}

/// Repack conformance under one kernel: BSGS within 0.02 of naive,
/// and the BSGS key set stays O(√n).
fn repack_sweep(kernel: NttKernel) {
    let ckks_ctx = CkksContext::new(32, 9, 3, 3, 36, 34).with_ntt_kernel(kernel);
    let mut rng = StdRng::seed_from_u64(0xF00D0 + kernel as u64);
    let sk = SecretKey::generate(&ckks_ctx, &mut rng);
    let mut keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
    let tfhe_ctx = TfheContext::new(16, 64, 7, 3, 6, 4).with_ntt_kernel(kernel);
    let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
    let ev = CkksEvaluator::new(ckks_ctx);
    let before = keys.rotation_key_count();
    let bridge = LweToCkks::new(&ev, &mut keys, &sk, &tfhe_keys, &mut rng).expect("shapes fit");
    let n = tfhe_ctx.lwe_dim();
    let added = keys.rotation_key_count() - before;
    assert!(
        added <= 2 * (n as f64).sqrt().ceil() as usize && added < n - 1,
        "BSGS key count {added} not O(sqrt {n}) under {kernel} kernel"
    );
    bridge.gen_naive_rotation_keys(&ev, &mut keys, &sk, &mut rng);

    for round in 0..4 {
        let count = rng.gen_range(1..=8);
        let lwes: Vec<LweCiphertext> = (0..count)
            .map(|_| small_mask_lwe(&tfhe_ctx, &tfhe_keys, rng.gen_range(0..16), &mut rng))
            .collect();
        let fast = bridge
            .repack(&ev, &keys, &lwes, &tfhe_ctx)
            .expect("shapes fit");
        let slow = bridge
            .repack_naive(&ev, &keys, &lwes, &tfhe_ctx)
            .expect("shapes fit");
        let df = ev.decrypt_real(&fast, &sk);
        let ds = ev.decrypt_real(&slow, &sk);
        for (j, (f, s)) in df.iter().zip(&ds).enumerate() {
            assert!(
                (f - s).abs() < 0.02,
                "BSGS repack drifted from naive under {kernel} kernel, \
                 round {round}, slot {j}: bsgs {f} naive {s}"
            );
        }
    }
}

#[test]
fn switch_paths_conform_under_every_kernel() {
    for kernel in NttKernel::ALL {
        extract_sweep(kernel);
        repack_sweep(kernel);
    }
}
