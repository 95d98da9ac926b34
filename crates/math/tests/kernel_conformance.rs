//! Cross-kernel NTT conformance suite.
//!
//! The dispatch layer ([`NttKernel`]) promises that the reference,
//! radix-4 and IFMA kernels — and hence whichever one
//! [`NttKernel::auto_for`] picks — are interchangeable: **bit-identical** outputs, not merely congruent
//! ones, for the negacyclic forward/inverse transforms and for full
//! negacyclic products. This suite pins that promise differentially
//! across every generated prime for ring dimensions 2^10 … 2^14, and
//! anchors the whole family to an O(n²) schoolbook oracle at small
//! dimensions. The IFMA generation only exists below 2⁵⁰, so sweeps
//! iterate [`kernels_for`] — every generation the modulus supports —
//! rather than `NttKernel::ALL`.
//!
//! Every test selects kernels explicitly (`with_kernel`,
//! `forward_with`, `ntt_forward_with`). An explicit IFMA kernel runs
//! the bit-identical portable mirror lanes on hosts without the
//! hardware, so every generation is exercised on every host.

use proptest::prelude::*;
use ufc_math::modops::{add_mod, ifma_modulus_ok, mul_mod, mul_shoup, shoup_precompute, sub_mod};
use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::plane::RnsPlane;
use ufc_math::poly::{Form, Poly};
use ufc_math::prime::{generate_ntt_prime, generate_ntt_primes};
use ufc_math::simd;
use ufc_math::simd::mul_mod_barrett52;

/// Ring dimensions covered by the differential sweeps. 2^13 and 2^14
/// exercise the genuinely blocked radix-4 schedule (dimension above
/// `RADIX4_BLOCK`); the smaller sizes exercise its radix-2 fallback.
/// 2^3–2^5 are the IFMA entry pass's portable rings (under 64
/// points) and 2^6–2^9 its smallest tiled ones, the sizes of the
/// N = 32–256 test rings.
const LOG_DIMS: [usize; 12] = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];

/// Prime widths sampled per dimension. 59 bits stresses the lazy
/// (< 4q < 2^61) headroom of the Harvey butterflies; 50 bits sits at
/// the top of the IFMA window (all three generations run); 30 bits
/// gives a completely different twiddle landscape.
const PRIME_BITS: [u32; 4] = [30, 45, 50, 59];

/// Primes generated per (dimension, width) pair.
const PRIMES_PER_BITS: usize = 2;

/// Every kernel generation that can run over modulus `q` — `ALL`
/// minus IFMA when the modulus is at or above 2⁵⁰.
fn kernels_for(q: u64) -> Vec<NttKernel> {
    NttKernel::ALL
        .into_iter()
        .filter(|k| k.supports_modulus(q))
        .collect()
}

/// Every context the sweep runs over: each generated prime at each
/// dimension. Construction pins the reference kernel; tests then pick
/// kernels explicitly.
fn contexts_for(log_n: usize) -> Vec<NttContext> {
    let n = 1 << log_n;
    PRIME_BITS
        .iter()
        .flat_map(|&bits| generate_ntt_primes(n, bits, PRIMES_PER_BITS))
        .map(|q| NttContext::new(n, q).with_kernel(NttKernel::Reference))
        .collect()
}

/// O(n²) schoolbook negacyclic product, the ground-truth oracle:
/// `c_k = Σ_{i+j≡k} ± a_i·b_j` with a sign flip on wrap-around.
fn schoolbook_negacyclic(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    let n = a.len();
    let mut c = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let p = mul_mod(ai, bj, q);
            let k = (i + j) % n;
            if i + j < n {
                c[k] = (c[k] + p) % q;
            } else {
                // X^n = -1: wrapped terms enter with a minus sign.
                c[k] = (c[k] + q - p) % q;
            }
        }
    }
    c
}

#[test]
fn forward_bit_identical_across_kernels() {
    for log_n in LOG_DIMS {
        for ctx in contexts_for(log_n) {
            let n = ctx.dim();
            let q = ctx.modulus();
            let kernels = kernels_for(q);
            let data = Poly::pseudorandom(n, q, 0xF0F0 ^ (log_n as u64)).into_coeffs();
            let outputs: Vec<Vec<u64>> = kernels
                .iter()
                .map(|&k| {
                    let mut buf = data.clone();
                    ctx.forward_with(k, &mut buf);
                    buf
                })
                .collect();
            for (k, out) in kernels.iter().zip(&outputs) {
                assert_eq!(
                    *out, outputs[0],
                    "forward {k} diverged from reference at n=2^{log_n}, q={q}"
                );
            }
        }
    }
}

#[test]
fn inverse_bit_identical_across_kernels_and_roundtrips() {
    for log_n in LOG_DIMS {
        for ctx in contexts_for(log_n) {
            let n = ctx.dim();
            let q = ctx.modulus();
            let coeffs = Poly::pseudorandom(n, q, 0xBEEF ^ (log_n as u64)).into_coeffs();
            // A genuine evaluation-form vector (any reduced vector
            // would do, but a real one also pins the round trip).
            let mut eval = coeffs.clone();
            ctx.forward_with(NttKernel::Reference, &mut eval);
            let kernels = kernels_for(q);
            let outputs: Vec<Vec<u64>> = kernels
                .iter()
                .map(|&k| {
                    let mut buf = eval.clone();
                    ctx.inverse_with(k, &mut buf);
                    buf
                })
                .collect();
            for (k, out) in kernels.iter().zip(&outputs) {
                assert_eq!(
                    *out, outputs[0],
                    "inverse {k} diverged from reference at n=2^{log_n}, q={q}"
                );
                assert_eq!(
                    *out, coeffs,
                    "inverse {k} failed to invert the forward transform at n=2^{log_n}, q={q}"
                );
            }
        }
    }
}

#[test]
fn negacyclic_mul_bit_identical_across_kernels() {
    for log_n in LOG_DIMS {
        for ctx in contexts_for(log_n) {
            let n = ctx.dim();
            let q = ctx.modulus();
            let a = Poly::pseudorandom(n, q, 11 + log_n as u64);
            let b = Poly::pseudorandom(n, q, 23 + log_n as u64);
            let kernels = kernels_for(q);
            let products: Vec<Poly> = kernels
                .iter()
                .map(|&k| ctx.clone().with_kernel(k).negacyclic_mul(&a, &b))
                .collect();
            for (k, p) in kernels.iter().zip(&products) {
                assert_eq!(
                    p.coeffs(),
                    products[0].coeffs(),
                    "negacyclic mul under {k} diverged at n=2^{log_n}, q={q}"
                );
            }
        }
    }
}

/// Worst-case entries — every coefficient `q − 1`, or every one 0 —
/// through every kernel, forward and inverse, at 30-, 45- and 50-bit
/// primes (the top of the IFMA window, where lazy values come closest
/// to the 52-bit lanes' ceiling), at every sweep dimension.
#[test]
fn worst_case_entries_bit_identical_across_kernels() {
    for log_n in LOG_DIMS {
        let n = 1 << log_n;
        for bits in [30u32, 45, 50] {
            let q = generate_ntt_prime(n, bits).unwrap();
            let ctx = NttContext::new(n, q).with_kernel(NttKernel::Reference);
            for fill in [q - 1, 0] {
                let data = vec![fill; n];
                let mut want_fwd = data.clone();
                ctx.forward_with(NttKernel::Reference, &mut want_fwd);
                let mut want_inv = data.clone();
                ctx.inverse_with(NttKernel::Reference, &mut want_inv);
                for k in kernels_for(q) {
                    let mut fwd = data.clone();
                    ctx.forward_with(k, &mut fwd);
                    assert_eq!(fwd, want_fwd, "forward {k}, all {fill}, n=2^{log_n}, q={q}");
                    let mut inv = data.clone();
                    ctx.inverse_with(k, &mut inv);
                    assert_eq!(inv, want_inv, "inverse {k}, all {fill}, n=2^{log_n}, q={q}");
                }
            }
        }
    }
}

#[test]
fn negacyclic_mul_matches_schoolbook_oracle() {
    for log_n in [4usize, 5, 6, 7, 8] {
        let n = 1 << log_n;
        for q in generate_ntt_primes(n, 40, 2) {
            let ctx = NttContext::new(n, q).with_kernel(NttKernel::Reference);
            let a = Poly::pseudorandom(n, q, 7 + log_n as u64);
            let b = Poly::pseudorandom(n, q, 13 + log_n as u64);
            let want = schoolbook_negacyclic(a.coeffs(), b.coeffs(), q);
            // 40-bit primes sit inside the IFMA window, so all three
            // generations (portable lanes on non-IFMA hosts) face the
            // oracle here.
            for k in kernels_for(q) {
                let got = ctx.clone().with_kernel(k).negacyclic_mul(&a, &b);
                assert_eq!(
                    got.coeffs(),
                    &want[..],
                    "negacyclic mul under {k} disagrees with the schoolbook oracle \
                     at n={n}, q={q}"
                );
            }
        }
    }
}

/// Deterministic filler: `len` values in `[lo, hi)` from a splitmix64
/// walk of `seed`.
fn fill(seed: u64, len: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            lo + (z ^ (z >> 31)) % (hi - lo)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The SIMD element-wise slice kernels at ragged (non-multiple-of-4)
    /// lengths: every length exercises the vector body *and* the scalar
    /// tail, and each lane must match the scalar oracle exactly.
    #[test]
    fn prop_simd_slice_kernels_match_oracles_at_ragged_lengths(
        seed in any::<u64>(), len in 1usize..67
    ) {
        let q = generate_ntt_prime(1 << 10, 59).unwrap();
        let a = fill(seed, len, 0, q);
        let b = fill(seed ^ 0xA5A5, len, 0, q);

        let mut got = a.clone();
        simd::add_mod_slice(&mut got, &b, q);
        for i in 0..len {
            prop_assert_eq!(got[i], add_mod(a[i], b[i], q), "add lane {}", i);
        }

        let mut got = a.clone();
        simd::sub_mod_slice(&mut got, &b, q);
        for i in 0..len {
            prop_assert_eq!(got[i], sub_mod(a[i], b[i], q), "sub lane {}", i);
        }

        let mut got = a.clone();
        simd::mul_mod_slice(&mut got, &b, q);
        for i in 0..len {
            prop_assert_eq!(got[i], mul_mod(a[i], b[i], q), "mul lane {}", i);
        }

        let c = fill(seed ^ 0x5A5A, len, 0, q);
        let mut got = c.clone();
        simd::mac_mod_slice(&mut got, &a, &b, q);
        for i in 0..len {
            prop_assert_eq!(
                got[i],
                add_mod(c[i], mul_mod(a[i], b[i], q), q),
                "mac lane {}", i
            );
        }

        let s = 1 + seed % (q - 1);
        let ss = shoup_precompute(s, q);
        let mut got = a.clone();
        simd::scale_shoup_slice(&mut got, s, ss, q);
        for i in 0..len {
            prop_assert_eq!(got[i], mul_shoup(a[i], s, ss, q), "scale lane {}", i);
        }
    }

    /// The dispatched hadamard/mac kernels on *denormal* `[q, 2q)`
    /// multiplicands, across generated prime widths on both sides of
    /// the 2^50 IFMA ceiling: every lane must be bit-identical to the
    /// scalar Barrett oracle on the canonicalized inputs. On IFMA hosts
    /// dispatch runs the vector lanes below 2^50 and portable Barrett
    /// above it. The 52-bit scalar mirror (`mul_mod_barrett52`) is
    /// pinned unconditionally — it evaluates the exact per-lane integer
    /// formula of the IFMA kernels, so its agreement transfers to the
    /// vector lanes on any host.
    #[test]
    fn prop_hadamard_mac_match_barrett_on_denormal_inputs(
        seed in any::<u64>(), len in 1usize..67, bits in 30u32..=60
    ) {
        let q = generate_ntt_prime(1 << 10, bits).unwrap();
        let a = fill(seed, len, q, 2 * q);
        let b = fill(seed ^ 0xD1CE, len, q, 2 * q);
        // The accumulator leg of mac is canonical by contract; only
        // the multiplicands admit lazy representatives.
        let c = fill(seed ^ 0x0DD5, len, 0, q);

        let canon = |x: u64| if x >= q { x - q } else { x };
        let mul_want: Vec<u64> =
            (0..len).map(|i| mul_mod(canon(a[i]), canon(b[i]), q)).collect();
        let mac_want: Vec<u64> =
            (0..len).map(|i| add_mod(c[i], mul_want[i], q)).collect();

        if ifma_modulus_ok(q) {
            for i in 0..len {
                prop_assert_eq!(
                    mul_mod_barrett52(a[i], b[i], q), mul_want[i],
                    "barrett52 mirror lane {} at {} bits", i, bits
                );
            }
        }

        let mut got = a.clone();
        simd::mul_mod_slice(&mut got, &b, q);
        prop_assert_eq!(&got, &mul_want, "hadamard on denormal inputs at {} bits", bits);
        let mut got = c.clone();
        simd::mac_mod_slice(&mut got, &a, &b, q);
        prop_assert_eq!(&got, &mac_want, "mac on denormal inputs at {} bits", bits);
    }

    /// Whole-transform conformance under proptest: the IFMA generation
    /// must equal the radix-4 generation bit-for-bit, forward and
    /// inverse, including on denormal `[q, 2q)` input vectors (both
    /// kernels tolerate any `< 2q` entry representative). 2^13 runs
    /// the cache-blocked schedule, the smaller sizes the plain walk.
    #[test]
    fn prop_ifma_transform_bit_identical_to_radix4(
        seed in any::<u64>(), log_n in 10usize..14, denormal in any::<bool>()
    ) {
        let n = 1 << log_n;
        let q = generate_ntt_prime(n, 49).unwrap();
        let ctx = NttContext::new(n, q).with_kernel(NttKernel::Reference);
        let (lo, hi) = if denormal { (q, 2 * q) } else { (0, q) };
        let data = fill(seed, n, lo, hi);

        let mut f = data.clone();
        ctx.forward_with(NttKernel::Ifma, &mut f);
        let mut r = data.clone();
        ctx.forward_with(NttKernel::Radix4, &mut r);
        prop_assert_eq!(&f, &r, "forward diverged at n=2^{}", log_n);

        // Inverse operates on reduced evaluation-form vectors.
        let mut fi = f.clone();
        ctx.inverse_with(NttKernel::Ifma, &mut fi);
        let mut ri = r.clone();
        ctx.inverse_with(NttKernel::Radix4, &mut ri);
        prop_assert_eq!(&fi, &ri, "inverse diverged at n=2^{}", log_n);
    }
}

/// The kernel the dispatch rule picks must be bit-identical to the
/// reference oracle at N = 2^12 and 2^13 and at every prime-width
/// class the schemes use: 31-bit TFHE, 36-bit CKKS, 49-bit inside the
/// IFMA window, 59-bit outside it.
#[test]
fn auto_kernel_bit_identical_to_reference() {
    for log_n in [12usize, 13] {
        let n = 1 << log_n;
        for bits in [31u32, 36, 49, 59] {
            let q = generate_ntt_prime(n, bits).unwrap();
            let auto = NttKernel::auto_for(n, q);
            let ctx = NttContext::new(n, q);
            let data = Poly::pseudorandom(n, q, 0xA070 ^ u64::from(bits)).into_coeffs();
            let mut got = data.clone();
            ctx.forward(&mut got);
            let mut want = data.clone();
            ctx.forward_with(NttKernel::Reference, &mut want);
            assert_eq!(
                got, want,
                "forward {auto} diverged from reference at n=2^{log_n}, {bits}-bit q"
            );
            ctx.inverse(&mut got);
            ctx.inverse_with(NttKernel::Reference, &mut want);
            assert_eq!(
                got, want,
                "inverse {auto} diverged from reference at n=2^{log_n}, {bits}-bit q"
            );
            assert_eq!(
                got, data,
                "round trip under {auto} at n=2^{log_n}, {bits}-bit q"
            );
        }
    }
}

#[test]
fn rns_plane_transforms_bit_identical_across_kernels() {
    for log_n in [12usize, 13] {
        let n = 1 << log_n;
        let moduli = generate_ntt_primes(n, 50, 3);
        let tables: Vec<NttContext> = moduli
            .iter()
            .map(|&q| NttContext::new(n, q).with_kernel(NttKernel::Reference))
            .collect();
        let table_refs: Vec<&NttContext> = tables.iter().collect();
        let polys: Vec<Poly> = moduli
            .iter()
            .enumerate()
            .map(|(i, &q)| Poly::pseudorandom(n, q, 1000 + i as u64))
            .collect();
        let coeff_plane = RnsPlane::from_polys(&polys, Form::Coeff);
        // A plane kernel must be valid for every residue modulus; the
        // 50-bit primes here keep all three generations in play.
        let kernels: Vec<NttKernel> = NttKernel::ALL
            .into_iter()
            .filter(|k| moduli.iter().all(|&q| k.supports_modulus(q)))
            .collect();
        assert_eq!(kernels.len(), NttKernel::ALL.len());
        let eval_planes: Vec<RnsPlane> = kernels
            .iter()
            .map(|&k| {
                let mut p = coeff_plane.clone();
                p.ntt_forward_with(&table_refs, k);
                p
            })
            .collect();
        for (k, p) in kernels.iter().zip(&eval_planes) {
            assert_eq!(
                *p, eval_planes[0],
                "plane forward under {k} diverged at n=2^{log_n}"
            );
            let mut back = p.clone();
            back.ntt_inverse_with(&table_refs, *k);
            assert_eq!(
                back, coeff_plane,
                "plane round trip under {k} lost coefficients at n=2^{log_n}"
            );
        }
    }
}
