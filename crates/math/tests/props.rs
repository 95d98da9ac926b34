//! Cross-module property tests for the arithmetic substrate.

use proptest::prelude::*;
use ufc_math::cgntt::{perfect_shuffle_dest, CgNtt, ShuffleDecomposition};
use ufc_math::fft::negacyclic_mul_fft;
use ufc_math::modops::{add_mod, inv_mod, mul_mod, neg_mod, pow_mod, sub_mod, Barrett, ShoupMul};
use ufc_math::ntt::NttContext;
use ufc_math::poly::Poly;
use ufc_math::prime::generate_ntt_prime;

fn random_poly(seed: u64, n: usize, q: u64) -> Poly {
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    Poly::from_coeffs((0..n).map(|_| next() % q).collect(), q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_cg_and_classical_ntt_agree_on_products(seed in any::<u64>()) {
        let n = 64;
        let q = generate_ntt_prime(n, 40).unwrap();
        let ctx = NttContext::new(n, q);
        let cg = CgNtt::new(ctx.clone());
        let a = random_poly(seed, n, q);
        let b = random_poly(seed.wrapping_add(1), n, q);
        prop_assert_eq!(cg.negacyclic_mul(&a, &b), ctx.negacyclic_mul(&a, &b));
    }

    #[test]
    fn prop_shuffle_decomposition_matches_perfect_shuffle(
        rows_log in 1u32..4, cols_log in 1u32..4, lanes_log in 1u32..5
    ) {
        let d = ShuffleDecomposition::new(1 << rows_log, 1 << cols_log, 1 << lanes_log);
        let n = d.len();
        for p in 0..n {
            prop_assert_eq!(d.composite_dest(p), perfect_shuffle_dest(p, n));
        }
    }

    #[test]
    fn prop_fft_matches_ntt_in_small_regime(seed in any::<u64>()) {
        let n = 128;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        // Small signed operands: well inside the f64 mantissa budget.
        let mut x = seed | 1;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
            (x % 256) as i64 - 128
        };
        let a = Poly::from_signed(&(0..n).map(|_| next()).collect::<Vec<_>>(), q);
        let b = Poly::from_signed(&(0..n).map(|_| next()).collect::<Vec<_>>(), q);
        prop_assert_eq!(negacyclic_mul_fft(&a, &b), ctx.negacyclic_mul(&a, &b));

        // The TFHE external-product shape at N = 256: balanced base-2^7
        // gadget digits (|d| ≤ 64) against uniform 31-bit residues.
        // N · B/2 · q/2 ≈ 2^44 stays inside the f64 mantissa, so the
        // FFT product must be exact (see the `fft` module docs for the
        // T1 shape, where it is not).
        let n = 256;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        let digits: Vec<i64> = (0..n).map(|_| next() % 65).collect();
        let digits = Poly::from_signed(&digits, q);
        let torus = random_poly(seed.wrapping_add(2), n, q);
        prop_assert_eq!(negacyclic_mul_fft(&digits, &torus), ctx.negacyclic_mul(&digits, &torus));
    }

    #[test]
    fn prop_mul_by_monomial_equals_rotation(seed in any::<u64>(), k in 0usize..128) {
        let n = 64;
        let q = generate_ntt_prime(n, 40).unwrap();
        let ctx = NttContext::new(n, q);
        let a = random_poly(seed, n, q);
        let m = Poly::monomial(1, k % (2 * n), n, q);
        prop_assert_eq!(ctx.negacyclic_mul(&a, &m), a.rotate_monomial(k % (2 * n)));
    }
}

// --------------------------------------------------- modular arithmetic

/// Arbitrary modulus in Barrett's domain (`2 <= q < 2^62`).
fn any_modulus(raw: u64) -> u64 {
    2 + raw % ((1u64 << 62) - 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_mul_mod_matches_u128_reference(
        a in any::<u64>(), b in any::<u64>(), q_raw in any::<u64>()
    ) {
        let q = any_modulus(q_raw);
        let (a, b) = (a % q, b % q);
        let expect = ((a as u128 * b as u128) % q as u128) as u64;
        prop_assert_eq!(mul_mod(a, b, q), expect);
    }

    #[test]
    fn prop_add_sub_neg_mod_match_i128_reference(
        a in any::<u64>(), b in any::<u64>(), q_raw in any::<u64>()
    ) {
        let q = any_modulus(q_raw);
        let (a, b) = (a % q, b % q);
        prop_assert_eq!(add_mod(a, b, q), ((a as u128 + b as u128) % q as u128) as u64);
        let diff = (a as i128 - b as i128).rem_euclid(q as i128) as u64;
        prop_assert_eq!(sub_mod(a, b, q), diff);
        prop_assert_eq!(add_mod(a, neg_mod(a, q), q), 0);
    }

    #[test]
    fn prop_barrett_agrees_with_mul_mod(
        a in any::<u64>(), b in any::<u64>(), q_raw in any::<u64>()
    ) {
        let q = any_modulus(q_raw);
        let (a, b) = (a % q, b % q);
        let br = Barrett::new(q);
        prop_assert_eq!(br.mul(a, b), mul_mod(a, b, q));
    }

    #[test]
    fn prop_barrett_reduce_u128_matches_reference(
        hi in any::<u64>(), lo in any::<u64>(), q_raw in any::<u64>()
    ) {
        let q = any_modulus(q_raw);
        // Barrett reduction is defined for x < q^2.
        let x = ((hi as u128) << 64 | lo as u128) % (q as u128 * q as u128);
        prop_assert_eq!(Barrett::new(q).reduce_u128(x), (x % q as u128) as u64);
    }

    #[test]
    fn prop_shoup_agrees_with_mul_mod(
        w in any::<u64>(), a in any::<u64>(), q_raw in any::<u64>()
    ) {
        // Shoup multiplication needs q < 2^63 headroom; stay in the
        // shared 62-bit domain.
        let q = any_modulus(q_raw);
        let (w, a) = (w % q, a % q);
        let sm = ShoupMul::new(w, q);
        prop_assert_eq!(sm.mul(a), mul_mod(a, w, q));
    }

    #[test]
    fn prop_inv_mod_is_inverse_over_prime(a in any::<u64>(), bits in 20u32..60) {
        let q = generate_ntt_prime(64, bits).unwrap();
        let a = a % q;
        match inv_mod(a, q) {
            Some(inv) => {
                prop_assert_eq!(mul_mod(a, inv, q), 1);
                prop_assert_eq!(inv, pow_mod(a, q - 2, q));
            }
            None => prop_assert_eq!(a, 0),
        }
    }
}
