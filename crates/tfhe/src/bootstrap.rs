//! Functional (programmable) bootstrapping: packing, blind-rotation
//! accumulation, and extraction (§II-C2).

use crate::context::TfheContext;
use crate::keys::TfheKeys;
use crate::keyswitch::key_switch;
use crate::lwe::LweCiphertext;
use crate::rlwe::RlweCiphertext;
use ufc_math::poly::Poly;

/// Builds the test-vector polynomial for a function `f` over a message
/// space of `space` values.
///
/// Messages must live in the lower half of the space (`m < space/2`);
/// the upper half is the negacyclic mirror (`f` of mirrored inputs
/// comes out negated) — the standard TFHE constraint.
pub fn lut_test_vector<F: Fn(u64) -> u64>(ctx: &TfheContext, f: F, space: u64) -> Poly {
    let n = ctx.ring_dim();
    let coeffs: Vec<u64> = (0..n)
        .map(|j| {
            // Phase index j covers messages around j·space/(2N).
            let m = ((j as u64 * space + n as u64) / (2 * n as u64)) % space;
            ctx.encode(f(m % (space / 2)), space)
        })
        .collect();
    Poly::from_coeffs(coeffs, ctx.q())
}

/// The constant test vector used by sign-style gate bootstrapping:
/// every coefficient is `q/8`, so blind rotation outputs `±q/8`
/// according to the sign of the phase.
pub fn sign_test_vector(ctx: &TfheContext) -> Poly {
    Poly::from_coeffs(vec![ctx.encode(1, 8); ctx.ring_dim()], ctx.q())
}

/// Blind rotation: accumulates `tv · X^{−φ̄}` where `φ̄` is the
/// mod-switched phase of `ct`, using one CMux per LWE key bit — the
/// dominant kernel of the logic scheme (Fig. 4).
pub fn blind_rotate(
    ctx: &TfheContext,
    keys: &TfheKeys,
    ct: &LweCiphertext,
    tv: &Poly,
) -> RlweCiphertext {
    let _span = ufc_trace::span_n("tfhe", "blind_rotate", ctx.lwe_dim() as u64);
    let two_n = 2 * ctx.ring_dim();
    let sw = ct.mod_switch(two_n as u64);
    // ACC = tv · X^{-b̄}.
    let b_bar = sw.b as usize % two_n;
    let mut acc = RlweCiphertext::trivial(tv.rotate_monomial(two_n - b_bar), ctx);
    for (i, &a_bar) in sw.a.iter().enumerate() {
        let a_bar = a_bar as usize % two_n;
        if a_bar == 0 {
            continue;
        }
        // ACC ← CMux(bsk_i, ACC, ACC · X^{ā_i}).
        acc = keys.bsk[i].cmux(ctx, &acc, acc.rotate(a_bar));
    }
    acc
}

/// Full programmable bootstrap: blind rotation, extraction, and key
/// switch back to the small key. Returns an LWE ciphertext (dimension
/// `n`) encrypting `f(m)` per the supplied test vector.
pub fn programmable_bootstrap(
    ctx: &TfheContext,
    keys: &TfheKeys,
    ct: &LweCiphertext,
    tv: &Poly,
) -> LweCiphertext {
    let _span = ufc_trace::span_n("tfhe", "pbs", ctx.ring_dim() as u64);
    let acc = blind_rotate(ctx, keys, ct, tv);
    let extracted = acc.sample_extract(0);
    key_switch(ctx, keys, &extracted)
}

/// Programmable bootstrap of a batch of independent ciphertexts under
/// one test vector: output `i` is `programmable_bootstrap(cts[i])`,
/// bit for bit.
///
/// The bootstraps fan out over [`ufc_math::par::par_map`] workers
/// (each item weighs `lwe_dim · ring_dim` words, one ring element per
/// CMux, so a batch of two or more T1 or test-scale bootstraps always
/// crosses the spawn cutoff). The keys and the test vector are shared
/// read-only; every bootstrap builds its own accumulator. Results do
/// not depend on the thread count.
pub fn programmable_bootstrap_batch(
    ctx: &TfheContext,
    keys: &TfheKeys,
    cts: &[LweCiphertext],
    tv: &Poly,
) -> Vec<LweCiphertext> {
    ufc_math::par::par_map(cts, ctx.lwe_dim() * ctx.ring_dim(), |_, ct| {
        programmable_bootstrap(ctx, keys, ct, tv)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (TfheContext, TfheKeys, StdRng) {
        let ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        (ctx, keys, rng)
    }

    #[test]
    fn blind_rotate_recovers_sign() {
        let (ctx, keys, mut rng) = setup(61);
        let tv = sign_test_vector(&ctx);
        let ring_key = keys.ring_key_flat(ctx.q());
        // +q/8 phase should give +q/8; -q/8 gives -q/8.
        for (m, expect) in [(1u64, 1u64), (7, 7)] {
            let ct = LweCiphertext::encrypt(&ctx, &keys.lwe_sk, ctx.encode(m, 8), &mut rng);
            let acc = blind_rotate(&ctx, &keys, &ct, &tv);
            let out = acc.sample_extract(0);
            assert_eq!(out.decrypt(&ctx, &ring_key, 8), expect, "m={m}");
        }
    }

    #[test]
    fn full_bootstrap_sign() {
        let (ctx, keys, mut rng) = setup(62);
        let tv = sign_test_vector(&ctx);
        for (m, expect) in [(1u64, 1u64), (3, 1), (5, 7), (7, 7)] {
            let ct = LweCiphertext::encrypt(&ctx, &keys.lwe_sk, ctx.encode(m, 8), &mut rng);
            let out = programmable_bootstrap(&ctx, &keys, &ct, &tv);
            assert_eq!(out.dim(), 64);
            assert_eq!(out.decrypt(&ctx, &keys.lwe_sk, 8), expect, "m={m}");
        }
    }

    #[test]
    fn programmable_lut_evaluation() {
        let (ctx, keys, mut rng) = setup(63);
        // f(m) = 2m + 1 mod 8 on messages 0..4.
        let tv = lut_test_vector(&ctx, |m| (2 * m + 1) % 8, 8);
        for m in 0..4u64 {
            let ct = LweCiphertext::encrypt(&ctx, &keys.lwe_sk, ctx.encode(m, 8), &mut rng);
            let out = programmable_bootstrap(&ctx, &keys, &ct, &tv);
            assert_eq!(out.decrypt(&ctx, &keys.lwe_sk, 8), (2 * m + 1) % 8, "m={m}");
        }
    }

    #[test]
    fn bootstrap_resets_noise() {
        // Add many fresh ciphertexts (growing noise), then bootstrap
        // and verify the result is still correct.
        let (ctx, keys, mut rng) = setup(64);
        let tv = sign_test_vector(&ctx);
        let one = ctx.encode(1, 8);
        let mut acc = LweCiphertext::encrypt(&ctx, &keys.lwe_sk, one, &mut rng);
        for _ in 0..4 {
            let z = LweCiphertext::encrypt(&ctx, &keys.lwe_sk, 0, &mut rng);
            acc = acc.add(&z);
        }
        let out = programmable_bootstrap(&ctx, &keys, &acc, &tv);
        assert_eq!(out.decrypt(&ctx, &keys.lwe_sk, 8), 1);
    }
}
