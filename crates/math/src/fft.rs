//! Double-precision complex FFT and FFT-based negacyclic
//! multiplication — the datapath Strix builds in hardware (§VII-D:
//! "Strix consists of normal 32-bit arithmetic units with 64-bit FFT
//! units due to the double-precision requirement for FFT. Compared to
//! FFT, NTT provides accurate results but requires extra modular
//! reduction").
//!
//! The complex type [`C64`], its helpers and [`bit_reverse`] also
//! serve the CKKS slot encoder (`ufc_ckks::encoding`), whose special
//! FFT maps slots to plaintext coefficients. No scheme *multiplies*
//! polynomials on this datapath: [`negacyclic_mul_fft`] is the
//! accuracy model of the §VII-D comparison. Its tests and
//! `prop_fft_matches_ntt_in_small_regime` quantify the trade-off — FFT
//! results carry rounding error that grows with the operand
//! magnitudes, while the NTT path is exact. On the TFHE
//! external-product shape (balanced gadget digits times uniform 31-bit
//! residues) the evidence is:
//!
//! * N = 256, base 2^7: 0 of 200 random products inexact
//!   (`N · B/2 · q/2 ≈ 2^44`, inside the 53-bit mantissa);
//! * N = 1024, base 2^10 (T1): 41 and 44 of 200 inexact in two
//!   independent draws (`≈ 2^49`, where the accumulated rounding error
//!   of the transform crosses ½).
//!
//! At T1 an FFT datapath is therefore only approximate — its error
//! has to be absorbed as extra noise — while the NTT stays exact.

use crate::modops::{from_signed, to_signed};
use crate::poly::Poly;

/// A complex number as `(re, im)`.
pub type C64 = (f64, f64);

/// `a + b`.
#[inline]
pub fn c_add(a: C64, b: C64) -> C64 {
    (a.0 + b.0, a.1 + b.1)
}

/// `a − b`.
#[inline]
pub fn c_sub(a: C64, b: C64) -> C64 {
    (a.0 - b.0, a.1 - b.1)
}

/// `a · b`.
#[inline]
pub fn c_mul(a: C64, b: C64) -> C64 {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Permutes `data` in place into bit-reversed index order (an
/// involution).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn bit_reverse<T>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    if bits == 0 {
        // One element: nothing to permute, and the shift below would
        // be by 64.
        return;
    }
    for i in 0..n {
        let j = ((i as u64).reverse_bits() >> (64 - bits)) as usize;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// In-place iterative radix-2 complex FFT (Cooley–Tukey,
/// natural-order in/out). `inverse` applies the conjugate transform
/// and the `1/n` normalization.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft(data: &mut [C64], inverse: bool) {
    let n = data.len();
    bit_reverse(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let w_len = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = (1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[start + j];
                let v = c_mul(data[start + j + len / 2], w);
                data[start + j] = c_add(u, v);
                data[start + j + len / 2] = c_sub(u, v);
                w = c_mul(w, w_len);
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv_n = 1.0 / n as f64;
        for x in data.iter_mut() {
            x.0 *= inv_n;
            x.1 *= inv_n;
        }
    }
}

/// Negacyclic (twisted) forward FFT of signed coefficients: applies
/// the `e^{iπk/N}` twist so the cyclic FFT computes the negacyclic
/// convolution.
pub fn negacyclic_fft(signed: &[i64]) -> Vec<C64> {
    let n = signed.len();
    let mut data: Vec<C64> = signed
        .iter()
        .enumerate()
        .map(|(k, &c)| {
            let th = std::f64::consts::PI * k as f64 / n as f64;
            c_mul((c as f64, 0.0), (th.cos(), th.sin()))
        })
        .collect();
    fft(&mut data, false);
    data
}

/// Inverse of [`negacyclic_fft`], rounding back to signed integers.
///
/// Values must fit `i64`; the modular variant inside
/// [`negacyclic_mul_fft`] handles larger magnitudes.
pub fn negacyclic_ifft(mut data: Vec<C64>) -> Vec<i64> {
    negacyclic_ifft_f64(&mut data)
        .into_iter()
        .map(|v| v.round() as i64)
        .collect()
}

/// Untwisted inverse FFT returning raw `f64` coefficient values.
fn negacyclic_ifft_f64(data: &mut [C64]) -> Vec<f64> {
    let n = data.len();
    fft(data, true);
    data.iter()
        .enumerate()
        .map(|(k, &v)| {
            let th = -std::f64::consts::PI * k as f64 / n as f64;
            c_mul(v, (th.cos(), th.sin())).0
        })
        .collect()
}

/// Negacyclic polynomial product over `Z_q` computed through the
/// double-precision FFT (the Strix datapath). Exact only while the
/// intermediate magnitudes stay below the ~2^52 mantissa budget;
/// beyond that, rounding error leaks into the result — the §VII-D
/// trade-off.
pub fn negacyclic_mul_fft(a: &Poly, b: &Poly) -> Poly {
    assert_eq!(a.dim(), b.dim(), "dimension mismatch");
    assert_eq!(a.modulus(), b.modulus(), "modulus mismatch");
    let q = a.modulus();
    let sa: Vec<i64> = a.coeffs().iter().map(|&c| to_signed(c, q)).collect();
    let sb: Vec<i64> = b.coeffs().iter().map(|&c| to_signed(c, q)).collect();
    let fa = negacyclic_fft(&sa);
    let fb = negacyclic_fft(&sb);
    let mut prod: Vec<C64> = fa.iter().zip(&fb).map(|(&x, &y)| c_mul(x, y)).collect();
    // Reduce mod q in the f64 domain: magnitudes can exceed i64, and
    // the residual f64 error here *is* the §VII-D precision loss.
    let qf = q as f64;
    let coeffs: Vec<u64> = negacyclic_ifft_f64(&mut prod)
        .into_iter()
        .map(|v| {
            let r = v.round().rem_euclid(qf);
            from_signed(r as i64, q)
        })
        .collect();
    Poly::from_coeffs(coeffs, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttContext;
    use crate::prime::generate_ntt_prime;

    #[test]
    fn fft_roundtrip() {
        let orig: Vec<C64> = (0..64).map(|i| (i as f64, -(i as f64) / 3.0)).collect();
        let mut data = orig.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn negacyclic_fft_roundtrip() {
        let signed: Vec<i64> = (0..128).map(|i| (i * 37 % 101) - 50).collect();
        let back = negacyclic_ifft(negacyclic_fft(&signed));
        assert_eq!(back, signed);
    }

    #[test]
    fn fft_mul_matches_ntt_for_small_operands() {
        // With small operands the FFT stays within its mantissa
        // budget and agrees exactly with the (always-exact) NTT.
        let n = 256;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        let a = Poly::from_signed(&(0..n as i64).map(|i| i % 128 - 64).collect::<Vec<_>>(), q);
        let b = Poly::from_signed(
            &(0..n as i64).map(|i| (i * 7) % 64 - 32).collect::<Vec<_>>(),
            q,
        );
        assert_eq!(negacyclic_mul_fft(&a, &b), ctx.negacyclic_mul(&a, &b));
    }

    #[test]
    fn fft_loses_precision_on_large_operands_ntt_does_not() {
        // §VII-D: "NTT provides accurate results". Push operands near
        // the modulus so Σ a_i·b_j reaches ~N·q² ≈ 2^70 >> 2^52: the
        // FFT product must deviate from the exact NTT product.
        let n = 256usize;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        let big = (q / 2 - 1) as i64;
        let a = Poly::from_signed(&vec![big; n], q);
        let b = Poly::from_signed(&vec![-big; n], q);
        let exact = ctx.negacyclic_mul(&a, &b);
        let approx = negacyclic_mul_fft(&a, &b);
        assert_ne!(exact, approx, "FFT at full magnitude cannot stay exact");
        // Sanity: the schoolbook reference agrees with the NTT.
        assert_eq!(exact, a.negacyclic_mul_schoolbook(&b));
    }

    #[test]
    fn fft_is_accurate_in_the_tfhe_regime() {
        // TFHE external products multiply gadget digits (|d| ≤ B/2)
        // by torus words — the regime Strix's 64-bit FFT is built
        // for. Verify exactness there.
        let n = 1024;
        let q = generate_ntt_prime(n, 31).unwrap();
        let ctx = NttContext::new(n, q);
        let digits = Poly::from_signed(
            &(0..n as i64).map(|i| (i % 128) - 64).collect::<Vec<_>>(),
            q,
        );
        // Torus operand kept within the product budget:
        // N · B/2 · |m| < 2^52  →  |m| < 2^52 / (2^10 · 2^6) = 2^36.
        let m = Poly::from_signed(
            &(0..n as i64)
                .map(|i| (i * 31415) % (1 << 24))
                .collect::<Vec<_>>(),
            q,
        );
        assert_eq!(
            negacyclic_mul_fft(&digits, &m),
            ctx.negacyclic_mul(&digits, &m)
        );
    }
}
