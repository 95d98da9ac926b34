//! Canonical-embedding encoding: complex slot vectors ↔ ring elements.
//!
//! CKKS packs `N/2` complex slots into one real polynomial by
//! evaluating at the primitive `2N`-th roots `ζ^{5^j}` (one per orbit
//! of the rotation group). Encoding is the inverse embedding scaled by
//! `Δ` and rounded; slot rotation then corresponds to the Galois
//! automorphism `X → X^{5^r}`.
//!
//! Both directions are the special FFT over the `5^j mod 2N` orbit,
//! `O(N log N)`. Because `ζ^{(N/2)·5^j} = i`, slot `j` of `m` is
//! `Σ_{k<N/2} (m_k + i·m_{k+N/2}) ζ^{k·5^j}`: an `N/2`-point transform
//! of the folded vector `m_k + i·m_{k+N/2}`. Decoding bit-reverses it
//! and runs `log2(N/2)` butterfly stages; encoding runs the inverse
//! stages, bit-reverses and scales by `2/N`, and coefficient `k` takes
//! the real part and `k + N/2` the imaginary part. Every twiddle is
//! read from one table of `e^{2πik/2N}` whose entries are computed
//! directly. The tests check both directions against the direct
//! `O(N · slots)` embedding sums, kept there as the oracle.

use ufc_math::fft::{bit_reverse, c_add, c_mul, c_sub, C64};

/// A complex number as an `(re, im)` pair.
pub type Complex = C64;

/// Encoder/decoder for a fixed ring dimension and scale.
#[derive(Debug, Clone)]
pub struct Encoder {
    n: usize,
    scale: f64,
    /// `5^j mod 2N` for `j` in `0..N/2` — the evaluation-point orbit.
    rot_group: Vec<usize>,
    /// `ζ^k = e^{2πik/2N}` for `k` in `0..2N`.
    roots: Vec<Complex>,
}

impl Encoder {
    /// Creates an encoder for ring dimension `n` (power of two ≥ 4)
    /// and scale `Δ`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `scale <= 0`.
    pub fn new(n: usize, scale: f64) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "n must be a power of two >= 4"
        );
        assert!(scale > 0.0, "scale must be positive");
        let two_n = 2 * n;
        let mut rot_group = Vec::with_capacity(n / 2);
        let mut k = 1usize;
        for _ in 0..n / 2 {
            rot_group.push(k);
            k = k * 5 % two_n;
        }
        let roots = (0..two_n)
            .map(|k| {
                let theta = std::f64::consts::PI * k as f64 / n as f64;
                (theta.cos(), theta.sin())
            })
            .collect();
        Self {
            n,
            scale,
            rot_group,
            roots,
        }
    }

    /// Number of slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// The scale `Δ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Twiddle of butterfly `j` in a stage of width `len`:
    /// `ζ^{±(5^j mod 4·len)·2N/(4·len)}`, conjugated when `inverse`.
    fn twiddle(&self, j: usize, len: usize, inverse: bool) -> Complex {
        let lenq = 4 * len;
        let r = self.rot_group[j] % lenq;
        let r = if inverse { lenq - r } else { r };
        self.roots[r * (2 * self.n / lenq)]
    }

    /// The embedding of the folded vector: bit-reverse, then
    /// `log2(N/2)` butterfly stages.
    fn embed(&self, vals: &mut [Complex]) {
        bit_reverse(vals);
        let mut len = 2;
        while len <= vals.len() {
            for block in vals.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(len / 2);
                for (j, (u, v)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let a = *u;
                    let b = c_mul(*v, self.twiddle(j, len, false));
                    *u = c_add(a, b);
                    *v = c_sub(a, b);
                }
            }
            len <<= 1;
        }
    }

    /// The inverse stages of [`Self::embed`], then bit-reverse; the
    /// `2/N` normalisation is left to the caller.
    fn embed_inv(&self, vals: &mut [Complex]) {
        let mut len = vals.len();
        while len >= 2 {
            for block in vals.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(len / 2);
                for (j, (u, v)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let (a, b) = (*u, *v);
                    *u = c_add(a, b);
                    *v = c_mul(c_sub(a, b), self.twiddle(j, len, true));
                }
            }
            len >>= 1;
        }
        bit_reverse(vals);
    }

    /// Encodes complex slots into integer polynomial coefficients
    /// (centered) at the encoder's scale. Missing slots are
    /// zero-padded.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` slots are supplied.
    pub fn encode(&self, slots: &[Complex]) -> Vec<i64> {
        self.encode_at(slots, self.scale)
    }

    /// [`Self::encode`] at an explicit scale instead of the encoder's.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` slots are supplied.
    pub fn encode_at(&self, slots: &[Complex], scale: f64) -> Vec<i64> {
        assert!(slots.len() <= self.slots(), "too many slots");
        let half = self.slots();
        let mut vals = slots.to_vec();
        vals.resize(half, (0.0, 0.0));
        self.embed_inv(&mut vals);
        let norm = 2.0 * scale / self.n as f64;
        let mut coeffs = vec![0i64; self.n];
        let (re, im) = coeffs.split_at_mut(half);
        for ((r, i), v) in re.iter_mut().zip(im.iter_mut()).zip(&vals) {
            *r = (norm * v.0).round() as i64;
            *i = (norm * v.1).round() as i64;
        }
        coeffs
    }

    /// Encodes a real vector (imaginary parts zero).
    pub fn encode_real(&self, values: &[f64]) -> Vec<i64> {
        let slots: Vec<Complex> = values.iter().map(|&v| (v, 0.0)).collect();
        self.encode(&slots)
    }

    /// Decodes centered integer coefficients back into complex slots.
    pub fn decode(&self, coeffs: &[i64], scale: f64) -> Vec<Complex> {
        assert_eq!(coeffs.len(), self.n, "coefficient count must be N");
        let (re, im) = coeffs.split_at(self.slots());
        let mut vals: Vec<Complex> = re
            .iter()
            .zip(im)
            .map(|(&a, &b)| (a as f64, b as f64))
            .collect();
        self.embed(&mut vals);
        for v in &mut vals {
            *v = (v.0 / scale, v.1 / scale);
        }
        vals
    }

    /// Decodes, returning only real parts.
    pub fn decode_real(&self, coeffs: &[i64], scale: f64) -> Vec<f64> {
        self.decode(coeffs, scale)
            .into_iter()
            .map(|z| z.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// The direct `O(N · slots)` encode the FFT replaces:
    /// `m_k = (2Δ/N) Σ_j Re(z_j · ζ^{−k·5^j})`, rounded.
    fn encode_direct(enc: &Encoder, slots: &[Complex]) -> Vec<i64> {
        let two_n = 2 * enc.n;
        let mut acc = vec![0.0f64; enc.n];
        for (&z, &g) in slots.iter().zip(&enc.rot_group) {
            for (k, a) in acc.iter_mut().enumerate() {
                *a += c_mul(z, enc.roots[(two_n - k * g % two_n) % two_n]).0;
            }
        }
        let norm = 2.0 * enc.scale / enc.n as f64;
        acc.into_iter().map(|a| (norm * a).round() as i64).collect()
    }

    /// The direct decode: slot `j` is `Σ_k m_k ζ^{k·5^j} / Δ`.
    fn decode_direct(enc: &Encoder, coeffs: &[i64], scale: f64) -> Vec<Complex> {
        let two_n = 2 * enc.n;
        enc.rot_group
            .iter()
            .map(|&g| {
                let acc = coeffs.iter().enumerate().fold((0.0, 0.0), |acc, (k, &c)| {
                    c_add(acc, c_mul((c as f64, 0.0), enc.roots[k * g % two_n]))
                });
                (acc.0 / scale, acc.1 / scale)
            })
            .collect()
    }

    /// Checks encode and decode of `slots` against the direct sums:
    /// coefficients within ±1, slots within a relative 1e-9.
    fn assert_matches_direct(enc: &Encoder, slots: &[Complex]) {
        let fast = enc.encode(slots);
        let slow = encode_direct(enc, slots);
        let coeff_gap = fast.iter().zip(&slow).map(|(a, b)| (a - b).abs()).max();
        assert!(coeff_gap <= Some(1), "encode gap {coeff_gap:?}");
        let fast = enc.decode(&slow, enc.scale());
        let slow = decode_direct(enc, &slow, enc.scale());
        let norm = |z: Complex| z.0.hypot(z.1);
        let peak = slow.iter().copied().map(norm).fold(1.0, f64::max);
        let gap = fast
            .iter()
            .zip(&slow)
            .map(|(&a, &b)| norm(c_sub(a, b)))
            .fold(0.0, f64::max);
        assert!(gap <= 1e-9 * peak, "decode gap {gap} at peak {peak}");
    }

    fn random_slots(rng: &mut StdRng, count: usize) -> Vec<Complex> {
        (0..count)
            .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn fft_matches_direct_sum(log_n in 4u32..=11, seed in any::<u64>()) {
            let n = 1usize << log_n;
            let enc = Encoder::new(n, 2f64.powi(40));
            let mut rng = StdRng::seed_from_u64(seed);
            let slots = random_slots(&mut rng, n / 2);
            assert_matches_direct(&enc, &slots);
            // A partial vector, zero-padded to N/2 slots.
            let filled = rng.gen_range(1..n / 2);
            assert_matches_direct(&enc, &slots[..filled]);
        }
    }

    #[test]
    fn fft_matches_direct_sum_at_n8192() {
        let n = 1 << 13;
        let enc = Encoder::new(n, 2f64.powi(40));
        let mut rng = StdRng::seed_from_u64(0x5EED_2013);
        assert_matches_direct(&enc, &random_slots(&mut rng, n / 2));
    }

    #[test]
    fn roundtrip_real() {
        let enc = Encoder::new(64, 2f64.powi(30));
        let vals: Vec<f64> = (0..32).map(|i| (i as f64) / 7.0 - 2.0).collect();
        let coeffs = enc.encode_real(&vals);
        let back = enc.decode_real(&coeffs, enc.scale());
        assert!(
            max_err(&vals, &back) < 1e-6,
            "err = {}",
            max_err(&vals, &back)
        );
    }

    #[test]
    fn roundtrip_complex() {
        let enc = Encoder::new(32, 2f64.powi(28));
        let slots: Vec<Complex> = (0..16)
            .map(|i| (i as f64 * 0.5, -(i as f64) * 0.25))
            .collect();
        let coeffs = enc.encode(&slots);
        let back = enc.decode(&coeffs, enc.scale());
        for (z, w) in slots.iter().zip(&back) {
            assert!((z.0 - w.0).abs() < 1e-5 && (z.1 - w.1).abs() < 1e-5);
        }
    }

    #[test]
    fn encoding_is_additive() {
        let enc = Encoder::new(32, 2f64.powi(26));
        let a: Vec<f64> = (0..16).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..16).map(|i| 1.5 - i as f64 * 0.05).collect();
        let ca = enc.encode_real(&a);
        let cb = enc.encode_real(&b);
        let sum: Vec<i64> = ca.iter().zip(&cb).map(|(x, y)| x + y).collect();
        let dec = enc.decode_real(&sum, enc.scale());
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert!(max_err(&dec, &expect) < 1e-5);
    }

    #[test]
    fn slot_rotation_matches_automorphism() {
        // decode(automorph_{5^r}(m)) == rotate(decode(m), r): the core
        // property CKKS rotations rely on.
        let n = 32;
        let enc = Encoder::new(n, 2f64.powi(26));
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let coeffs = enc.encode_real(&vals);
        // Apply X -> X^5 on signed coefficients (one rotation step).
        let k = 5usize;
        let mut rotated = vec![0i64; n];
        for (i, &c) in coeffs.iter().enumerate() {
            let j = (i * k) % (2 * n);
            if j < n {
                rotated[j] += c;
            } else {
                rotated[j - n] -= c;
            }
        }
        let dec = enc.decode_real(&rotated, enc.scale());
        // Slots shift left by 1.
        let expect: Vec<f64> = (0..16).map(|i| vals[(i + 1) % 16]).collect();
        assert!(max_err(&dec, &expect) < 1e-5, "{dec:?}");
    }

    #[test]
    fn zero_padding() {
        let enc = Encoder::new(32, 2f64.powi(26));
        let coeffs = enc.encode_real(&[1.0]);
        let dec = enc.decode_real(&coeffs, enc.scale());
        assert!((dec[0] - 1.0).abs() < 1e-6);
        assert!(dec[1..].iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "too many slots")]
    fn rejects_overfull() {
        let enc = Encoder::new(8, 1024.0);
        let _ = enc.encode_real(&[0.0; 5]);
    }
}
