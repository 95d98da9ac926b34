//! Scalar modular arithmetic over `u64` moduli (up to 62 bits).
//!
//! These are the primitive operations executed by UFC's modular ALU
//! lanes: add, subtract, multiply (with Barrett and Shoup variants used
//! by the NTT), exponentiation and inversion.

/// Adds two residues modulo `q`.
///
/// Inputs must already be reduced (`a, b < q`); the result is reduced.
///
/// # Panics
///
/// Debug-panics when an input is not reduced.
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates `a` modulo `q`.
#[inline]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q);
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies two residues modulo `q` using 128-bit intermediate math.
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Computes `base^exp mod q` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    base %= q;
    let mut acc: u64 = 1 % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Computes the modular inverse of `a` modulo `q`.
///
/// Returns `None` when `gcd(a, q) != 1` (e.g. `a == 0`).
pub fn inv_mod(a: u64, q: u64) -> Option<u64> {
    // Extended Euclid over i128 to dodge sign gymnastics.
    let (mut old_r, mut r) = (a as i128, q as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let quot = old_r / r;
        (old_r, r) = (r, old_r - quot * r);
        (old_s, s) = (s, old_s - quot * s);
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % q as i128;
    if inv < 0 {
        inv += q as i128;
    }
    Some(inv as u64)
}

/// Barrett reducer for a fixed modulus.
///
/// Precomputes `floor(2^128 / q)` so that reduction of a 128-bit product
/// costs two multiplications. The paper's multiplier lanes use
/// Montgomery reduction; the simulator charges modular multiplies by
/// count, so the host keeps only Barrett and Shoup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Barrett {
    q: u64,
    /// floor(2^128 / q), as (hi, lo) 64-bit limbs.
    mu_hi: u64,
    mu_lo: u64,
}

impl Barrett {
    /// Creates a reducer for modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62`.
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be >= 2");
        assert!(q < (1 << 62), "modulus must fit in 62 bits");
        // mu = floor(2^128 / q). Compute via u128 division twice.
        let mu_hi = (u128::MAX / q as u128) >> 64;
        // lo limb: ((2^128 - 1) / q) approximates floor(2^128/q) because
        // q does not divide 2^128 (q >= 2 is not a power of two >= 2^64).
        let mu = u128::MAX / q as u128;
        let mu_lo = mu as u64;
        Self {
            q,
            mu_hi: mu_hi as u64,
            mu_lo,
        }
    }

    /// The modulus this reducer was built for.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// Reduces a full 128-bit value modulo `q`.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // Estimate quotient: qhat = floor(x * mu / 2^128).
        let mu = ((self.mu_hi as u128) << 64) | self.mu_lo as u128;
        let x_hi = x >> 64;
        let x_lo = x & 0xFFFF_FFFF_FFFF_FFFF;
        let mu_hi = mu >> 64;
        let mu_lo = mu & 0xFFFF_FFFF_FFFF_FFFF;
        // qhat = hi 128 bits of x * mu.
        let ll = x_lo * mu_lo;
        let lh = x_lo * mu_hi;
        let hl = x_hi * mu_lo;
        let hh = x_hi * mu_hi;
        let carry =
            ((ll >> 64) + (lh & 0xFFFF_FFFF_FFFF_FFFF) + (hl & 0xFFFF_FFFF_FFFF_FFFF)) >> 64;
        let qhat = hh + (lh >> 64) + (hl >> 64) + carry;
        let mut r = x.wrapping_sub(qhat.wrapping_mul(self.q as u128)) as u64;
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Multiplies two reduced residues modulo `q`.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128(a as u128 * b as u128)
    }
}

/// Shoup multiplication: multiply by a *precomputed constant* with a
/// single `u64` high-product and one conditional subtraction.
///
/// The NTT butterfly lanes in UFC multiply by twiddle factors that are
/// known ahead of time, which is exactly the Shoup setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    /// The constant operand `w` (reduced mod q).
    w: u64,
    /// `floor(w * 2^64 / q)`.
    w_shoup: u64,
    q: u64,
}

impl ShoupMul {
    /// Precomputes the Shoup representation of constant `w` modulo `q`.
    ///
    /// # Panics
    ///
    /// Panics if `w >= q`.
    pub fn new(w: u64, q: u64) -> Self {
        assert!(w < q, "constant must be reduced");
        let w_shoup = (((w as u128) << 64) / q as u128) as u64;
        Self { w, w_shoup, q }
    }

    /// The constant operand.
    #[inline]
    pub fn constant(&self) -> u64 {
        self.w
    }

    /// Computes `a * w mod q`.
    #[inline]
    pub fn mul(&self, a: u64) -> u64 {
        let hi = ((a as u128 * self.w_shoup as u128) >> 64) as u64;
        let r = (a.wrapping_mul(self.w)).wrapping_sub(hi.wrapping_mul(self.q));
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }
}

/// Precomputes the Shoup companion word `floor(w · 2^64 / q)` of a
/// constant `w < q`, for use with [`mul_shoup`] / [`mul_shoup_lazy`].
#[inline]
pub fn shoup_precompute(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "constant must be reduced");
    (((w as u128) << 64) / q as u128) as u64
}

/// Shoup multiplication by a precomputed constant, *lazy* variant:
/// returns `a · w mod q` as a representative in `[0, 2q)`.
///
/// Unlike the fully-reduced variant this accepts **any** `a < 2^64`
/// (not just reduced residues), which is what lets the Harvey NTT
/// butterflies defer reduction: with `q < 2^62` the stage values stay
/// below `4q` and a single correction pass at the end suffices.
///
/// Proof sketch: `w_shoup = (w·2^64 − r₀)/q` with `0 ≤ r₀ < q`, so
/// `hi = floor(a·w_shoup / 2^64)` is within 2 of `a·w/q` from below,
/// giving `0 ≤ a·w − hi·q < 2q`. The wrapping arithmetic is exact
/// because `2q < 2^64`.
#[inline]
pub fn mul_shoup_lazy(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
    a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q))
}

/// Shoup multiplication by a precomputed constant, fully reduced.
///
/// `w_shoup` must come from [`shoup_precompute`]`(w, q)`; `a` may be
/// any `u64` (the result is still exact mod `q`), the return value is
/// in `[0, q)`.
#[inline]
pub fn mul_shoup(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let r = mul_shoup_lazy(a, w, w_shoup, q);
    if r >= q {
        r - q
    } else {
        r
    }
}

/// Brings a lazy Harvey representative `v < 4q` back to canonical
/// `[0, q)` with two conditional subtractions — the correction pass the
/// NTT kernels run after their deferred-reduction stage walks.
#[inline]
pub fn reduce_4q(v: u64, q: u64) -> u64 {
    debug_assert!(v < 4 * q);
    let two_q = 2 * q;
    let v = if v >= two_q { v - two_q } else { v };
    if v >= q {
        v - q
    } else {
        v
    }
}

/// Computes `2^64 mod q` — the radix constant used to fold a 128-bit
/// product `hi·2^64 + lo` through two Shoup multiplies on vector lanes
/// that lack a native 128-bit reduction.
#[inline]
pub fn pow2_64_mod(q: u64) -> u64 {
    ((1u128 << 64) % q as u128) as u64
}

/// Bit width of the product halves produced by the AVX-512 IFMA
/// `vpmadd52lo/hi` instructions: each lane multiplies two 52-bit
/// operands and accumulates either the low or the high 52 bits of the
/// 104-bit product.
pub const IFMA_PRODUCT_BITS: u32 = 52;

/// Mask selecting the low 52 bits of a lane.
pub const M52: u64 = (1u64 << IFMA_PRODUCT_BITS) - 1;

/// Largest modulus bit width the 52-bit (IFMA) kernel generation
/// supports.
///
/// The Harvey lazy stages keep values below `4q` and the element-wise
/// Barrett path below `4q` as well; both must fit the 52-bit lane
/// domain, so `4q < 2^52`, i.e. `q < 2^50`. (The instruction's operand
/// width is 52 bits; the two-bit gap is the lazy-reduction headroom.)
pub const IFMA_MAX_MODULUS_BITS: u32 = 50;

/// Whether modulus `q` fits the 52-bit (IFMA) kernel generation.
#[inline]
pub fn ifma_modulus_ok(q: u64) -> bool {
    (2..(1u64 << IFMA_MAX_MODULUS_BITS)).contains(&q)
}

/// Precomputes the 52-bit Shoup companion word `floor(w · 2^52 / q)` of
/// a constant `w < q < 2^50`, for use with [`mul_shoup52_lazy`].
///
/// This is the twiddle representation of the IFMA kernel generation:
/// `vpmadd52hi` yields `floor(a · w52 / 2^52)` in one instruction, so
/// the quotient estimate that costs a 128-bit high product on 64-bit
/// lanes is a single fused multiply here.
#[inline]
pub fn shoup52_precompute(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "constant must be reduced");
    debug_assert!(ifma_modulus_ok(q), "modulus must fit 50 bits");
    (((w as u128) << IFMA_PRODUCT_BITS) / q as u128) as u64
}

/// 52-bit Shoup multiplication by a precomputed constant, *lazy*
/// variant: returns `a · w mod q` as a representative in `[0, 2q)`.
///
/// Accepts any `a < 2^52` (in particular the `< 4q` Harvey stage
/// values), mirroring [`mul_shoup_lazy`] with the radix lowered from
/// `2^64` to `2^52`. The subtraction is computed in 64-bit wrapping
/// arithmetic and masked to 52 bits, which matches what the IFMA lanes
/// do (`vpmadd52lo` returns products mod `2^52`): the true value
/// `a·w − hi·q` lies in `[0, 2q) ⊂ [0, 2^52)`, so reducing both
/// products mod `2^52` before subtracting cannot change it.
///
/// Bound proof, as for the 64-bit variant: `w52 = (w·2^52 − r₀)/q` with
/// `0 ≤ r₀ < q`, so `hi = floor(a·w52 / 2^52)` undershoots `a·w/q` by
/// less than 2, giving `0 ≤ a·w − hi·q < 2q`.
#[inline]
pub fn mul_shoup52_lazy(a: u64, w: u64, w52: u64, q: u64) -> u64 {
    debug_assert!(a <= M52, "lazy operand must fit 52 bits");
    let hi = ((a as u128 * w52 as u128) >> IFMA_PRODUCT_BITS) as u64;
    a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q)) & M52
}

/// 52-bit Shoup multiplication by a precomputed constant, fully
/// reduced: `a · w mod q` in `[0, q)` for any `a < 2^52`.
#[inline]
pub fn mul_shoup52(a: u64, w: u64, w52: u64, q: u64) -> u64 {
    let r = mul_shoup52_lazy(a, w, w52, q);
    if r >= q {
        r - q
    } else {
        r
    }
}

/// Maps a signed integer into `[0, q)`.
#[inline]
pub fn from_signed(v: i64, q: u64) -> u64 {
    if v >= 0 {
        (v as u64) % q
    } else {
        let m = ((-v) as u64) % q;
        if m == 0 {
            0
        } else {
            q - m
        }
    }
}

/// Maps a residue in `[0, q)` to its centered representative in
/// `(-q/2, q/2]`.
#[inline]
pub fn to_signed(v: u64, q: u64) -> i64 {
    debug_assert!(v < q);
    if v > q / 2 {
        -((q - v) as i64)
    } else {
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 0x1fff_ffff_ffff_c001; // a 61-bit prime-ish test modulus
    const P: u64 = 1_152_921_504_598_720_513; // 2^60 - 2^14 + 1, NTT prime

    #[test]
    fn add_sub_roundtrip() {
        assert_eq!(add_mod(3, 4, 11), 7);
        assert_eq!(add_mod(7, 9, 11), 5);
        assert_eq!(sub_mod(3, 4, 11), 10);
        assert_eq!(sub_mod(add_mod(5, 9, 11), 9, 11), 5);
    }

    #[test]
    fn neg_is_additive_inverse() {
        for a in 0..11u64 {
            assert_eq!(add_mod(a, neg_mod(a, 11), 11), 0);
        }
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(pow_mod(2, 10, 1_000_000_007), 1024);
        assert_eq!(pow_mod(0, 0, 7), 1);
        assert_eq!(pow_mod(5, 0, 7), 1);
        assert_eq!(pow_mod(5, 1, 7), 5);
    }

    #[test]
    fn inv_mod_matches_fermat() {
        // P is prime, so inverse equals a^(P-2).
        for a in [1u64, 2, 12345, P - 1, 987654321] {
            assert_eq!(inv_mod(a, P).unwrap(), pow_mod(a, P - 2, P));
        }
    }

    #[test]
    fn inv_mod_rejects_non_coprime() {
        assert_eq!(inv_mod(0, 7), None);
        assert_eq!(inv_mod(6, 12), None);
    }

    #[test]
    fn barrett_matches_naive() {
        let br = Barrett::new(Q);
        let pairs = [
            (0u64, 0u64),
            (1, Q - 1),
            (Q - 1, Q - 1),
            (123_456_789, 987_654_321),
            (Q / 2, Q / 3),
        ];
        for (a, b) in pairs {
            assert_eq!(br.mul(a, b), mul_mod(a, b, Q), "a={a} b={b}");
        }
    }

    #[test]
    fn barrett_reduce_u128_full_range() {
        let br = Barrett::new(P);
        for x in [0u128, 1, P as u128, u128::MAX / 2, u128::MAX] {
            assert_eq!(br.reduce_u128(x), (x % P as u128) as u64);
        }
    }

    #[test]
    fn shoup_matches_naive() {
        let w = 0x1234_5678_9abc_def0 % P;
        let sm = ShoupMul::new(w, P);
        for a in [0u64, 1, P - 1, 42, P / 2] {
            assert_eq!(sm.mul(a), mul_mod(a, w, P));
        }
    }

    #[test]
    fn shoup_lazy_is_congruent_and_bounded() {
        let w = 0x1234_5678_9abc_def0 % P;
        let ws = shoup_precompute(w, P);
        for a in [0u64, 1, P - 1, 2 * P - 1, 4 * P - 1, u64::MAX] {
            let r = mul_shoup_lazy(a, w, ws, P);
            assert!(r < 2 * P, "lazy result must stay below 2q");
            assert_eq!(r % P, mul_mod(a % P, w, P));
            assert_eq!(mul_shoup(a, w, ws, P), mul_mod(a % P, w, P));
        }
    }

    #[test]
    fn reduce_4q_matches_mod() {
        for v in [0u64, 1, P - 1, P, 2 * P - 1, 2 * P, 3 * P + 5, 4 * P - 1] {
            assert_eq!(reduce_4q(v, P), v % P, "v={v}");
        }
    }

    #[test]
    fn pow2_64_mod_matches_definition() {
        for q in [2u64, 3, 11, P, Q, (1 << 62) - 57] {
            assert_eq!(pow2_64_mod(q) as u128, (1u128 << 64) % q as u128, "q={q}");
        }
    }

    #[test]
    fn shoup52_lazy_is_congruent_and_bounded() {
        // 50-bit NTT-friendly prime (the IFMA ceiling) and a small one.
        for q in [1_125_899_906_826_241u64, 65_537, 12_289] {
            assert!(ifma_modulus_ok(q));
            let w = 0x1234_5678_9abc_def0 % q;
            let w52 = shoup52_precompute(w, q);
            for a in [0u64, 1, q - 1, 2 * q - 1, 4 * q - 1, M52] {
                let r = mul_shoup52_lazy(a, w, w52, q);
                assert!(r < 2 * q, "lazy result must stay below 2q");
                assert_eq!(r % q, mul_mod(a % q, w, q));
                assert_eq!(mul_shoup52(a, w, w52, q), mul_mod(a % q, w, q));
            }
        }
    }

    #[test]
    fn ifma_modulus_ok_boundaries() {
        assert!(ifma_modulus_ok(2));
        assert!(ifma_modulus_ok((1 << 50) - 1));
        assert!(!ifma_modulus_ok(1 << 50));
        assert!(!ifma_modulus_ok(u64::MAX));
        assert!(!ifma_modulus_ok(0));
        assert!(!ifma_modulus_ok(1));
    }

    #[test]
    fn signed_roundtrip() {
        for v in [-5i64, -1, 0, 1, 5] {
            assert_eq!(to_signed(from_signed(v, 101), 101), v);
        }
        assert_eq!(from_signed(-101, 101), 0);
    }
}
