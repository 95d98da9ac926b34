//! Equivalence suite for the flat RNS data plane and the Shoup/Harvey
//! NTT kernels.
//!
//! Three claims are exercised here, each a load-bearing invariant of
//! the zero-copy refactor:
//!
//! 1. every [`RnsPlane`] operation is bit-identical to running the
//!    corresponding [`Poly`] kernel (or scalar gadget decomposition)
//!    limb by limb;
//! 2. the lazy Harvey butterflies round-trip (and stay fully reduced)
//!    for *every* prime [`generate_ntt_primes`] can emit, across ring
//!    dimensions and modulus widths;
//! 3. limb parallelism is invisible: results are bit-identical no
//!    matter how many worker threads `par_limbs` fans out to.

use proptest::prelude::*;
use ufc_math::gadget::Gadget;
use ufc_math::modops::from_signed;
use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::par::set_max_threads;
use ufc_math::plane::RnsPlane;
use ufc_math::poly::{Form, Poly};
use ufc_math::prime::generate_ntt_primes;

/// Deterministic splitmix-style generator for bulk test data.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let z = x ^ (x >> 31);
        z.wrapping_mul(0x9E3779B97F4A7C15)
    }
}

fn random_plane(seed: u64, n: usize, moduli: &[u64], form: Form) -> RnsPlane {
    let mut next = stream(seed);
    let mut data = Vec::with_capacity(n * moduli.len());
    for &q in moduli {
        data.extend((0..n).map(|_| next() % q));
    }
    RnsPlane::from_flat_unchecked(data, moduli, form)
}

/// The per-limb [`Poly`] images of a plane.
fn limb_polys(p: &RnsPlane) -> Vec<Poly> {
    (0..p.limb_count()).map(|i| p.limb_poly(i)).collect()
}

fn assert_limbs_match(plane: &RnsPlane, polys: &[Poly], what: &str) {
    for (i, poly) in polys.iter().enumerate() {
        assert_eq!(plane.limb(i), poly.coeffs(), "{what}: limb {i} diverged");
    }
}

// ----------------------------------------- plane vs per-limb Poly ops

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Element-wise plane kernels (Barrett/Shoup) against the scalar
    /// Poly kernels, limb by limb, over a 3-limb basis.
    #[test]
    fn prop_elementwise_plane_ops_match_poly(seed in any::<u64>()) {
        let n = 32;
        let moduli = generate_ntt_primes(n, 40, 3);
        prop_assert_eq!(moduli.len(), 3);
        let a = random_plane(seed, n, &moduli, Form::Coeff);
        let b = random_plane(seed.wrapping_add(1), n, &moduli, Form::Coeff);
        let (pa, pb) = (limb_polys(&a), limb_polys(&b));

        let mut sum = a.clone();
        sum.add_assign(&b);
        let expect: Vec<Poly> = pa.iter().zip(&pb).map(|(x, y)| x.add(y)).collect();
        assert_limbs_match(&sum, &expect, "add");

        let mut diff = a.clone();
        diff.sub_assign(&b);
        let expect: Vec<Poly> = pa.iter().zip(&pb).map(|(x, y)| x.sub(y)).collect();
        assert_limbs_match(&diff, &expect, "sub");

        let mut neg = a.clone();
        neg.neg_assign();
        let expect: Vec<Poly> = pa.iter().map(Poly::neg).collect();
        assert_limbs_match(&neg, &expect, "neg");

        let scalars: Vec<u64> = {
            let mut next = stream(seed.wrapping_add(2));
            moduli.iter().map(|&q| next() % q).collect()
        };
        let mut scaled = a.clone();
        scaled.scale_limbs_assign(&scalars);
        let expect: Vec<Poly> = pa
            .iter()
            .zip(&scalars)
            .map(|(x, &s)| x.scale(s))
            .collect();
        assert_limbs_match(&scaled, &expect, "scale_limbs");

        // Hadamard and MAC are evaluation-form-only on the plane.
        let ea = random_plane(seed.wrapping_add(3), n, &moduli, Form::Eval);
        let eb = random_plane(seed.wrapping_add(4), n, &moduli, Form::Eval);
        let (pea, peb) = (limb_polys(&ea), limb_polys(&eb));

        let mut had = ea.clone();
        had.hadamard_assign(&eb);
        let expect: Vec<Poly> = pea.iter().zip(&peb).map(|(x, y)| x.hadamard(y)).collect();
        assert_limbs_match(&had, &expect, "hadamard");

        let mut mac = ea.clone();
        mac.mac_assign(&eb, &had);
        let expect: Vec<Poly> = pea
            .iter()
            .zip(peb.iter().zip(&expect))
            .map(|(acc, (x, y))| {
                let mut acc = acc.clone();
                acc.mac_assign(x, y);
                acc
            })
            .collect();
        assert_limbs_match(&mac, &expect, "mac");
    }

    /// Plane automorphisms against the per-limb slice kernels, in both
    /// bases (coefficient scatter and evaluation permutation).
    #[test]
    fn prop_automorphism_plane_matches_poly(seed in any::<u64>(), r in 0usize..16) {
        let n = 32;
        let moduli = generate_ntt_primes(n, 40, 2);
        let k = 2 * r + 1; // Galois exponents are odd mod 2N.
        for form in [Form::Coeff, Form::Eval] {
            let a = random_plane(seed, n, &moduli, form);
            let mut moved = a.clone();
            moved.automorph_assign(k);
            for i in 0..a.limb_count() {
                let p = a.limb_poly(i);
                let expect = match form {
                    Form::Coeff => ufc_math::automorph::apply_coeff(&p, k),
                    Form::Eval => ufc_math::automorph::apply_eval(&p, k),
                };
                prop_assert_eq!(moved.limb(i), expect.coeffs(), "form {:?} limb {}", form, i);
            }
        }
    }

    /// The full plane product chain (forward NTT, Hadamard, inverse)
    /// against `NttContext::negacyclic_mul` run limb by limb.
    #[test]
    fn prop_plane_ntt_mul_matches_poly_path(seed in any::<u64>()) {
        let n = 64;
        let moduli = generate_ntt_primes(n, 45, 3);
        let tables: Vec<NttContext> =
            moduli.iter().map(|&q| NttContext::new(n, q)).collect();
        let refs: Vec<&NttContext> = tables.iter().collect();

        let a = random_plane(seed, n, &moduli, Form::Coeff);
        let b = random_plane(seed.wrapping_add(1), n, &moduli, Form::Coeff);

        let mut prod = a.clone();
        prod.ntt_forward(&refs);
        let mut be = b.clone();
        be.ntt_forward(&refs);
        prod.hadamard_assign(&be);
        prod.ntt_inverse(&refs);
        prop_assert_eq!(prod.form(), Form::Coeff);

        for (i, table) in tables.iter().enumerate() {
            let expect = table.negacyclic_mul(&a.limb_poly(i), &b.limb_poly(i));
            prop_assert_eq!(prod.limb(i), expect.coeffs(), "limb {}", i);
        }
    }

    /// Rescale on the plane against the hand-rolled per-limb rounding
    /// formula `(c_i + h - [c_L + h]_{q_L}) · q_L^{-1} mod q_i`,
    /// `h = ⌊q_L/2⌋`.
    #[test]
    fn prop_rescale_matches_per_limb_formula(seed in any::<u64>()) {
        let n = 32;
        let moduli = generate_ntt_primes(n, 40, 3);
        let a = random_plane(seed, n, &moduli, Form::Coeff);
        let mut dropped = a.clone();
        dropped.rescale_assign();
        prop_assert_eq!(dropped.limb_count(), 2);

        let q_last = moduli[2];
        for (i, &qi) in moduli.iter().enumerate().take(2) {
            let inv = ufc_math::modops::inv_mod(q_last % qi, qi).unwrap();
            for (j, (&got, &c_last)) in
                dropped.limb(i).iter().zip(a.limb(2)).enumerate()
            {
                let half = q_last / 2;
                let shifted_last = (c_last + half) % q_last;
                let c_i = (a.limb(i)[j] + half % qi) % qi;
                let diff = ufc_math::modops::sub_mod(c_i, shifted_last % qi, qi);
                let expect = ufc_math::modops::mul_mod(diff, inv, qi);
                prop_assert_eq!(got, expect, "limb {} coeff {}", i, j);
            }
        }
    }
}

// ------------------------------------------------ TFHE plane kernels

/// Plane monomial rotation against `Poly::rotate_monomial` for every
/// exponent `k < 2N`, on every limb of a two-limb plane.
#[test]
fn plane_rotation_matches_poly_for_every_exponent() {
    let n = 64;
    let moduli = generate_ntt_primes(n, 31, 2);
    let a = random_plane(0x707A7E, n, &moduli, Form::Coeff);
    for k in 0..2 * n {
        let rotated = a.rotate_monomial(k);
        for i in 0..a.limb_count() {
            let expect = a.limb_poly(i).rotate_monomial(k);
            assert_eq!(rotated.limb(i), expect.coeffs(), "k = {k}, limb {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plane digit decomposition against `Gadget::decompose_scalar`,
    /// coefficient by coefficient: limb `j` holds digit `j` as a
    /// residue mod `q`. `Gadget::decompose_into` writes the same
    /// digits into a reused buffer.
    #[test]
    fn prop_plane_decomposition_matches_scalar(
        seed in any::<u64>(),
        log_base in 2u32..11,
        levels in 1usize..5,
    ) {
        let n = 32;
        let q = generate_ntt_primes(n, 31, 1)[0];
        let g = Gadget::new(q, log_base, levels);
        let src = random_plane(seed, n, &[q], Form::Coeff);
        let digits = g.decompose_plane(src.limb(0));
        prop_assert_eq!(digits.limb_count(), levels);
        prop_assert_eq!(digits.form(), Form::Coeff);
        // Poisoned between coefficients: every digit must be written.
        let mut buf = vec![i64::MIN; levels];
        for (i, &c) in src.limb(0).iter().enumerate() {
            let scalar = g.decompose_scalar(c);
            g.decompose_into(c, &mut buf);
            prop_assert_eq!(&buf, &scalar, "coeff {}", i);
            for (j, &d) in scalar.iter().enumerate() {
                prop_assert_eq!(digits.limb(j)[i], from_signed(d, q), "coeff {} digit {}", i, j);
            }
            buf.fill(i64::MIN);
        }
    }
}

// ------------------------------------ Harvey round-trip, every prime

/// Forward/inverse round-trip (and output reduction) for every prime
/// the generator can emit, across ring dimensions and modulus widths —
/// the Shoup tables and lazy-reduction bounds must hold for all of
/// them, not just the benchmark favourites.
#[test]
fn harvey_roundtrip_for_every_generated_prime() {
    let mut checked = 0usize;
    for n in [16usize, 64, 256, 1024] {
        for bits in [17u32, 20, 31, 36, 45, 50, 55, 60, 62] {
            for q in generate_ntt_primes(n, bits, 3) {
                let ctx = NttContext::new(n, q);
                let mut next = stream(q ^ n as u64);
                let original: Vec<u64> = (0..n).map(|_| next() % q).collect();

                let mut buf = original.clone();
                ctx.forward(&mut buf);
                assert!(
                    buf.iter().all(|&c| c < q),
                    "forward output unreduced for q={q} n={n}"
                );
                assert_ne!(buf, original, "forward must not be identity");
                ctx.inverse(&mut buf);
                assert!(
                    buf.iter().all(|&c| c < q),
                    "inverse output unreduced for q={q} n={n}"
                );
                assert_eq!(buf, original, "round-trip failed for q={q} n={n}");

                // The lazy kernels must agree with the seed-faithful
                // textbook chain on the same prime.
                let mut reference = original.clone();
                ctx.forward_with(NttKernel::Reference, &mut reference);
                let mut lazy = original.clone();
                ctx.forward(&mut lazy);
                assert_eq!(lazy, reference, "lazy vs reference for q={q} n={n}");
                checked += 1;
            }
        }
    }
    // 4 dims × 9 widths × up to 3 primes each; a few width/dim combos
    // have fewer than 3 primes in range, but the sweep must stay big.
    assert!(checked > 80, "only {checked} primes exercised");
}

// ------------------------------------------- thread-count invariance

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An identical op sequence on one worker thread and on four must
    /// produce bit-identical planes. The buffer is sized past the
    /// `par_limbs` serial cutoff so the threaded path really runs.
    #[test]
    fn prop_thread_count_never_changes_results(seed in any::<u64>()) {
        let n = 2048;
        let moduli = generate_ntt_primes(n, 50, 8);
        prop_assert_eq!(moduli.len(), 8);
        let tables: Vec<NttContext> =
            moduli.iter().map(|&q| NttContext::new(n, q)).collect();
        let refs: Vec<&NttContext> = tables.iter().collect();

        let run = |threads: usize| -> RnsPlane {
            let prev = set_max_threads(threads);
            let mut a = random_plane(seed, n, &moduli, Form::Coeff);
            let b = random_plane(seed.wrapping_add(1), n, &moduli, Form::Coeff);
            let mut be = b.clone();
            a.ntt_forward(&refs);
            be.ntt_forward(&refs);
            a.hadamard_assign(&be);
            a.mac_assign(&be, &be);
            a.ntt_inverse(&refs);
            a.automorph_assign(5);
            set_max_threads(prev);
            a
        };

        let serial = run(1);
        let threaded = run(4);
        prop_assert_eq!(serial, threaded);
    }
}
