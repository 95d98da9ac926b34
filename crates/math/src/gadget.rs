//! Gadget (digit) decomposition — the `Decomp` primitive of Table I.
//!
//! TFHE's external products and key switching, and CKKS's hybrid
//! key-switching, all decompose big coefficients into small digits so
//! that multiplying by (noisy) key material keeps noise growth linear
//! in the digit size instead of the coefficient size.

use crate::modops::{add_mod, from_signed, mul_mod};
use crate::plane::RnsPlane;
use crate::poly::Form;

/// A base-`2^log_base` gadget with `levels` digits over modulus `q`.
///
/// The gadget vector is `g = (q/B, q/B², …)` in the *approximate*
/// (MSB-first) convention used by TFHE: digit `j` weights
/// `q / B^(j+1)`, so recomposition approximates the input with error
/// at most `q / B^levels / 2` per coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gadget {
    q: u64,
    log_base: u32,
    levels: usize,
    /// Whether `(q − 1)·2^total_bits + q/2 < 2^64`, so the rounding
    /// in [`Self::for_each_digit`] fits a `u64` division (every T1–T4
    /// set: 31-bit `q`, at most 28 gadget bits).
    narrow: bool,
}

impl Gadget {
    /// Creates a gadget for modulus `q`, digit base `2^log_base`, and
    /// `levels` digits.
    ///
    /// # Panics
    ///
    /// Panics if `log_base == 0`, `levels == 0`, or the gadget would
    /// exceed 64 bits of precision.
    pub fn new(q: u64, log_base: u32, levels: usize) -> Self {
        assert!(log_base > 0, "digit base must be at least 2");
        assert!(levels > 0, "need at least one digit");
        assert!(
            log_base as usize * levels <= 64,
            "gadget precision exceeds 64 bits"
        );
        let total_bits = log_base * levels as u32;
        let top = (u128::from(q.saturating_sub(1)) << total_bits) + u128::from(q / 2);
        Self {
            q,
            log_base,
            levels,
            narrow: total_bits < 64 && top <= u128::from(u64::MAX),
        }
    }

    /// Modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Number of digits.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Digit base `B = 2^log_base`.
    #[inline]
    pub fn base(&self) -> u64 {
        1u64 << self.log_base
    }

    /// The gadget weight of digit `j`: `round(q / B^(j+1))`.
    pub fn weight(&self, j: usize) -> u64 {
        debug_assert!(j < self.levels);
        // Compute round(q / 2^(log_base*(j+1))) without overflow.
        let shift = self.log_base as u64 * (j as u64 + 1);
        if shift >= 64 {
            // q < 2^64 always, so the weight rounds to 0 or 1.
            return if shift > 64 {
                0
            } else {
                u64::from(self.q >> 63 != 0)
            };
        }
        let div = 1u128 << shift;
        ((self.q as u128 + div / 2) / div) as u64
    }

    /// Signed (centered) decomposition of one residue.
    ///
    /// Returns `levels` digits in `[-B/2, B/2]` such that
    /// `sum_j digit_j * weight(j) ≈ v (mod q)` with rounding error
    /// below `weight(levels-1) / 2 + levels` (the approximate-gadget
    /// error TFHE tolerates).
    pub fn decompose_scalar(&self, v: u64) -> Vec<i64> {
        let mut digits = vec![0i64; self.levels];
        self.decompose_into(v, &mut digits);
        digits
    }

    /// [`Self::decompose_scalar`] into a caller's buffer: writes the
    /// `levels` digits of `v` to `digits`, with no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `digits` does not hold exactly `levels` entries.
    pub fn decompose_into(&self, v: u64, digits: &mut [i64]) {
        assert_eq!(digits.len(), self.levels, "digit count mismatch");
        self.for_each_digit(v, |j, d| digits[j] = d);
    }

    /// Decomposes every residue of `src` into a `levels`-limb plane
    /// over `q` in coefficient form: limb `j` holds digit `j` of every
    /// coefficient (the signed digits of [`Self::decompose_scalar`]
    /// mapped into `Z_q`). Digits are written straight into the plane
    /// buffer, with no per-coefficient allocation.
    pub fn decompose_plane(&self, src: &[u64]) -> RnsPlane {
        let n = src.len();
        let mut flat = vec![0u64; n * self.levels];
        for (i, &c) in src.iter().enumerate() {
            self.for_each_digit(c, |j, d| flat[j * n + i] = from_signed(d, self.q));
        }
        RnsPlane::from_flat_unchecked(flat, &vec![self.q; self.levels], Form::Coeff)
    }

    /// Calls `emit(j, digit_j)` for the balanced digits of `v`, MSB
    /// digit (`j = 0`) last.
    fn for_each_digit(&self, v: u64, mut emit: impl FnMut(usize, i64)) {
        debug_assert!(v < self.q);
        let total_bits = self.log_base * self.levels as u32;
        // Scale v from modulus q to the 2^total_bits gadget domain,
        // with rounding: round(v · 2^total_bits / q), in u64 when the
        // numerator fits (a u128 division costs several times more).
        let x = if self.narrow {
            ((v << total_bits) + self.q / 2) / self.q
        } else {
            (((u128::from(v) << total_bits) + u128::from(self.q / 2)) / u128::from(self.q)) as u64
        };
        // Balanced base-B digits, least significant first, read from
        // the low total_bits of x (a round-up to 2^total_bits is 0,
        // the same value mod q); a final carry out of the MSB digit is
        // dropped (it corresponds to adding q, a no-op mod q).
        let b = 1i64 << self.log_base;
        let mut carry = 0i64;
        for j in (0..self.levels).rev() {
            let shift = self.log_base * (self.levels - 1 - j) as u32;
            let mut d = ((x >> shift) & (b - 1) as u64) as i64 + carry;
            if d > b / 2 {
                d -= b;
                carry = 1;
            } else {
                carry = 0;
            }
            emit(j, d);
        }
    }

    /// Recomposes digits into a residue: `sum_j digit_j * weight(j) mod q`.
    pub fn recompose_scalar(&self, digits: &[i64]) -> u64 {
        assert_eq!(digits.len(), self.levels, "digit count mismatch");
        let mut acc = 0u64;
        for (j, &d) in digits.iter().enumerate() {
            let term = mul_mod(from_signed(d, self.q), self.weight(j), self.q);
            acc = add_mod(acc, term, self.q);
        }
        acc
    }

    /// Worst-case recomposition error bound (per coefficient, absolute
    /// value on centered representatives).
    ///
    /// Two error sources: truncating the scaled value to `total_bits`
    /// of precision (`≤ q / 2^total_bits`), and rounding each gadget
    /// weight `q / B^(j+1)` to an integer (`≤ levels * (B/2) * 1/2`
    /// after weighting by the balanced digits). For prime moduli the
    /// gadget is inherently approximate — the standard situation for
    /// NTT-based TFHE (paper §VII-D).
    pub fn error_bound(&self) -> u64 {
        let total_bits = self.log_base as u64 * self.levels as u64;
        let truncation = if total_bits >= 63 {
            1
        } else {
            (self.q >> total_bits) + 2
        };
        let weight_rounding = self.levels as u64 * (self.base() / 4 + 1);
        truncation + weight_rounding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::to_signed;
    use proptest::prelude::*;

    #[test]
    fn near_exact_when_gadget_covers_modulus() {
        // With 64 bits of precision over a 32-bit modulus the only
        // residual error is the per-weight rounding.
        let q = crate::prime::generate_ntt_prime(1024, 32).unwrap();
        let g = Gadget::new(q, 8, 8);
        let bound = g.error_bound() as i64;
        for v in [0u64, 1, q - 1, q / 2, 12345678] {
            let rec = g.recompose_scalar(&g.decompose_scalar(v));
            let err = to_signed(if rec >= v { rec - v } else { q - (v - rec) }, q);
            assert!(err.abs() <= bound, "v={v} rec={rec} err={err}");
        }
    }

    #[test]
    fn digits_are_balanced() {
        let q = crate::prime::generate_ntt_prime(1024, 32).unwrap();
        let g = Gadget::new(q, 4, 4);
        for v in (0..q).step_by((q / 257) as usize) {
            for &d in &g.decompose_scalar(v) {
                assert!(d.abs() <= 8, "digit {d} exceeds B/2");
            }
        }
    }

    #[test]
    fn approximate_error_within_bound() {
        let q = crate::prime::generate_ntt_prime(1024, 32).unwrap();
        let g = Gadget::new(q, 7, 3); // 21 bits of precision < 32
        let bound = g.error_bound() as i64;
        for v in (0..q).step_by((q / 509) as usize) {
            let rec = g.recompose_scalar(&g.decompose_scalar(v));
            let err = to_signed(if rec >= v { rec - v } else { q - (v - rec) }, q);
            assert!(
                err.abs() <= bound,
                "v={v} rec={rec} err={err} bound={bound}"
            );
        }
    }

    #[test]
    fn plane_decompose_recompose() {
        let q = crate::prime::generate_ntt_prime(16, 40).unwrap();
        let g = Gadget::new(q, 10, 5); // 50 bits > 40: exact
        let src: Vec<u64> = (0..16u64).map(|i| i * 999_999 % q).collect();
        let digits = g.decompose_plane(&src);
        assert_eq!(digits.limb_count(), 5);
        // Recompose: sum_j digits_j * weight_j; approximate per
        // coefficient within the gadget error bound.
        let bound = g.error_bound() as i64;
        for (i, &want) in src.iter().enumerate() {
            let got = (0..5).fold(0u64, |acc, j| {
                add_mod(acc, mul_mod(digits.limb(j)[i], g.weight(j), q), q)
            });
            let err = to_signed(
                if got >= want {
                    got - want
                } else {
                    q - (want - got)
                },
                q,
            );
            assert!(err.abs() <= bound, "err={err} bound={bound}");
        }
    }

    #[test]
    fn weights_are_decreasing() {
        let q = crate::prime::generate_ntt_prime(1024, 50).unwrap();
        let g = Gadget::new(q, 12, 4);
        for j in 1..4 {
            assert!(g.weight(j) < g.weight(j - 1));
        }
    }

    /// The digits as the u128 rounding formula gives them: the oracle
    /// for the u64 fast path in [`Gadget::for_each_digit`].
    fn digits_u128(q: u64, log_base: u32, levels: usize, v: u64) -> Vec<i64> {
        let total_bits = log_base * levels as u32;
        let scaled = ((u128::from(v) << total_bits) + u128::from(q / 2)) / u128::from(q);
        let x = scaled & ((1u128 << total_bits) - 1);
        let b = 1i128 << log_base;
        let mut digits = vec![0i64; levels];
        let mut carry = 0i128;
        for j in (0..levels).rev() {
            let shift = log_base * (levels - 1 - j) as u32;
            let mut d = ((x >> shift) as i128 & (b - 1)) + carry;
            carry = i128::from(d > b / 2);
            d -= carry * b;
            digits[j] = d as i64;
        }
        digits
    }

    /// `(log_base, levels)` pairs on both sides of the u64 bound,
    /// including full 64-bit gadgets.
    const SHAPES: [(u32, usize); 12] = [
        (1, 1),
        (2, 5),
        (4, 7),
        (7, 3),
        (7, 4),
        (10, 3),
        (11, 3),
        (10, 6),
        (16, 4),
        (21, 3),
        (8, 8),
        (32, 2),
    ];

    #[test]
    fn t1_to_t4_shapes_take_the_u64_path() {
        // 31-bit q with the paper sets' bootstrapping and key-switching
        // gadgets (at most 28 bits).
        let q = crate::prime::generate_ntt_prime(2048, 31).unwrap();
        for (log_base, levels) in [(10, 2), (7, 3), (8, 3), (14, 2), (8, 2), (6, 3)] {
            assert!(
                Gadget::new(q, log_base, levels).narrow,
                "{log_base}x{levels}"
            );
        }
        assert!(!Gadget::new(q, 12, 3).narrow, "67-bit numerator");
    }

    proptest! {
        #[test]
        fn prop_digits_match_u128_rounding(
            bits in 4u32..=62,
            shape in 0usize..SHAPES.len(),
            v in any::<u64>(),
        ) {
            let q = crate::prime::generate_ntt_prime(2, bits).unwrap();
            let (log_base, levels) = SHAPES[shape];
            let g = Gadget::new(q, log_base, levels);
            // The residues whose scaled remainder sits just below and
            // just above the rounding half: v · 2^total_bits ≡ q/2 and
            // q/2 + 1 (mod q).
            let total_bits = u64::from(log_base) * levels as u64;
            let inv = crate::modops::inv_mod(crate::modops::pow_mod(2, total_bits, q), q).unwrap();
            let tie = |r: u64| mul_mod(r, inv, q);
            for v in [v % q, 0, 1, q / 2, q / 2 + 1, q - 1, tie(q / 2), tie(q / 2 + 1)] {
                prop_assert_eq!(
                    g.decompose_scalar(v),
                    digits_u128(q, log_base, levels, v),
                    "q={} ({} bits) shape={}x{} v={}", q, bits, log_base, levels, v
                );
            }
        }

        #[test]
        fn prop_roundtrip_exact_gadget(v in 0u64..1_152_921_504_598_720_513) {
            let q = 1_152_921_504_598_720_513u64; // 60-bit NTT prime
            let g = Gadget::new(q, 10, 6); // 60 bits precision
            let rec = g.recompose_scalar(&g.decompose_scalar(v % q));
            let v = v % q;
            let diff = to_signed(if rec >= v { rec - v } else { q - (v - rec) }, q);
            prop_assert!(diff.abs() <= g.error_bound() as i64);
        }
    }
}
