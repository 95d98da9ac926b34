//! LWE ciphertexts: the basic unit of the logic scheme.

use crate::context::TfheContext;
use rand::Rng;
use ufc_math::modops::{add_mod, from_signed, mul_mod, neg_mod, sub_mod, to_signed};
use ufc_math::sample::gaussian;

/// An LWE encryption `(a, b)` with `b = <a, s> + m + e (mod q)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    /// Mask vector `a ∈ Z_q^n`.
    pub a: Vec<u64>,
    /// Body `b ∈ Z_q`.
    pub b: u64,
    /// Modulus `q`.
    pub q: u64,
}

impl LweCiphertext {
    /// The trivial (noiseless, keyless) encryption of `m`.
    pub fn trivial(m: u64, dim: usize, q: u64) -> Self {
        Self {
            a: vec![0; dim],
            b: m % q,
            q,
        }
    }

    /// Encrypts `m` (already torus-encoded) under binary key `s`.
    pub fn encrypt<R: Rng + ?Sized>(ctx: &TfheContext, s: &[u64], m: u64, rng: &mut R) -> Self {
        let q = ctx.q();
        let a: Vec<u64> = (0..s.len()).map(|_| rng.gen_range(0..q)).collect();
        let dot = a
            .iter()
            .zip(s)
            .fold(0u64, |acc, (&ai, &si)| add_mod(acc, mul_mod(ai, si, q), q));
        let e = from_signed(gaussian(rng, ctx.sigma()), q);
        let b = add_mod(add_mod(dot, m % q, q), e, q);
        Self { a, b, q }
    }

    /// Computes the phase `b - <a, s>` (message + noise).
    pub fn phase(&self, s: &[u64]) -> u64 {
        assert_eq!(s.len(), self.a.len(), "key dimension mismatch");
        let dot = self.a.iter().zip(s).fold(0u64, |acc, (&ai, &si)| {
            add_mod(acc, mul_mod(ai, si, self.q), self.q)
        });
        sub_mod(self.b, dot, self.q)
    }

    /// Decrypts to the nearest of `space` messages.
    pub fn decrypt(&self, ctx: &TfheContext, s: &[u64], space: u64) -> u64 {
        ctx.decode(self.phase(s), space)
    }

    /// LWE dimension.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Homomorphic addition.
    ///
    /// # Panics
    ///
    /// Panics on dimension or modulus mismatch.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(self.q, rhs.q, "modulus mismatch");
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        Self {
            a: self
                .a
                .iter()
                .zip(&rhs.a)
                .map(|(&x, &y)| add_mod(x, y, self.q))
                .collect(),
            b: add_mod(self.b, rhs.b, self.q),
            q: self.q,
        }
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, rhs: &Self) -> Self {
        assert_eq!(self.q, rhs.q, "modulus mismatch");
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        Self {
            a: self
                .a
                .iter()
                .zip(&rhs.a)
                .map(|(&x, &y)| sub_mod(x, y, self.q))
                .collect(),
            b: sub_mod(self.b, rhs.b, self.q),
            q: self.q,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            a: self.a.iter().map(|&x| neg_mod(x, self.q)).collect(),
            b: neg_mod(self.b, self.q),
            q: self.q,
        }
    }

    /// In-place homomorphic addition: `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension or modulus mismatch.
    pub fn add_assign(&mut self, rhs: &Self) {
        assert_eq!(self.q, rhs.q, "modulus mismatch");
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        for (x, &y) in self.a.iter_mut().zip(&rhs.a) {
            *x = add_mod(*x, y, self.q);
        }
        self.b = add_mod(self.b, rhs.b, self.q);
    }

    /// In-place homomorphic subtraction: `self -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension or modulus mismatch.
    pub fn sub_assign(&mut self, rhs: &Self) {
        assert_eq!(self.q, rhs.q, "modulus mismatch");
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        for (x, &y) in self.a.iter_mut().zip(&rhs.a) {
            *x = sub_mod(*x, y, self.q);
        }
        self.b = sub_mod(self.b, rhs.b, self.q);
    }

    /// In-place scaled subtraction: `self -= k·rhs`, bit-identical to
    /// `self.sub(&rhs.scale(k))` without the two intermediate
    /// ciphertext allocations. This is the digit-accumulation kernel
    /// of every LWE key switch (gadget digit × KSK row).
    ///
    /// # Panics
    ///
    /// Panics on dimension or modulus mismatch.
    pub fn sub_scaled_assign(&mut self, rhs: &Self, k: i64) {
        assert_eq!(self.q, rhs.q, "modulus mismatch");
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch");
        sub_scaled_parts(&mut self.a, &mut self.b, &rhs.a, rhs.b, k, self.q);
    }

    /// Scalar multiplication by a small signed constant.
    pub fn scale(&self, k: i64) -> Self {
        let ku = from_signed(k, self.q);
        Self {
            a: self.a.iter().map(|&x| mul_mod(x, ku, self.q)).collect(),
            b: mul_mod(self.b, ku, self.q),
            q: self.q,
        }
    }

    /// Switches the modulus to `new_q` with rounding (used before
    /// blind rotation, where `new_q = 2N`).
    pub fn mod_switch(&self, new_q: u64) -> Self {
        let sw = |v: u64| -> u64 {
            let centered = to_signed(v, self.q);
            let scaled = ((centered as i128 * new_q as i128) as f64 / self.q as f64).round() as i64;
            from_signed(scaled, new_q)
        };
        Self {
            a: self.a.iter().map(|&x| sw(x)).collect(),
            b: sw(self.b),
            q: new_q,
        }
    }
}

/// Raw-slice scaled-subtraction kernel: `(a, b) -= k·(rhs_a, rhs_b)
/// (mod q)`, elementwise `sub_mod(x, mul_mod(y, from_signed(k, q), q),
/// q)` — the exact composition of [`LweCiphertext::scale`] followed by
/// [`LweCiphertext::sub`], so accumulating through this kernel is
/// bit-identical to the allocating form. Shared between the LWE key
/// switch and the scheme-switch bridge's digit-major KSK, whose key
/// material lives in flat slabs rather than `LweCiphertext` values.
///
/// # Panics
///
/// Panics if `a` and `rhs_a` differ in length.
pub fn sub_scaled_parts(a: &mut [u64], b: &mut u64, rhs_a: &[u64], rhs_b: u64, k: i64, q: u64) {
    assert_eq!(a.len(), rhs_a.len(), "dimension mismatch");
    let ku = from_signed(k, q);
    for (x, &y) in a.iter_mut().zip(rhs_a) {
        *x = sub_mod(*x, mul_mod(y, ku, q), q);
    }
    *b = sub_mod(*b, mul_mod(rhs_b, ku, q), q);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::sample::binary_vec;

    fn setup() -> (TfheContext, Vec<u64>, StdRng) {
        let ctx = TfheContext::new(32, 64, 7, 3, 4, 3);
        let mut rng = StdRng::seed_from_u64(21);
        let s = binary_vec(&mut rng, 32);
        (ctx, s, rng)
    }

    #[test]
    fn encrypt_decrypt_all_messages() {
        let (ctx, s, mut rng) = setup();
        for m in 0..8u64 {
            let ct = LweCiphertext::encrypt(&ctx, &s, ctx.encode(m, 8), &mut rng);
            assert_eq!(ct.decrypt(&ctx, &s, 8), m);
        }
    }

    #[test]
    fn homomorphic_add_sub() {
        let (ctx, s, mut rng) = setup();
        let c1 = LweCiphertext::encrypt(&ctx, &s, ctx.encode(2, 8), &mut rng);
        let c2 = LweCiphertext::encrypt(&ctx, &s, ctx.encode(3, 8), &mut rng);
        assert_eq!(c1.add(&c2).decrypt(&ctx, &s, 8), 5);
        assert_eq!(c2.sub(&c1).decrypt(&ctx, &s, 8), 1);
        assert_eq!(c1.neg().decrypt(&ctx, &s, 8), 6); // -2 mod 8
    }

    #[test]
    fn scalar_multiplication() {
        let (ctx, s, mut rng) = setup();
        let c = LweCiphertext::encrypt(&ctx, &s, ctx.encode(1, 8), &mut rng);
        assert_eq!(c.scale(3).decrypt(&ctx, &s, 8), 3);
        assert_eq!(c.scale(-1).decrypt(&ctx, &s, 8), 7);
    }

    #[test]
    fn in_place_kernels_match_allocating_forms() {
        let (ctx, s, mut rng) = setup();
        let c1 = LweCiphertext::encrypt(&ctx, &s, ctx.encode(2, 8), &mut rng);
        let c2 = LweCiphertext::encrypt(&ctx, &s, ctx.encode(3, 8), &mut rng);
        let mut acc = c1.clone();
        acc.add_assign(&c2);
        assert_eq!(acc, c1.add(&c2));
        let mut acc = c1.clone();
        acc.sub_assign(&c2);
        assert_eq!(acc, c1.sub(&c2));
        for k in [-3i64, -1, 0, 2, 5] {
            let mut acc = c1.clone();
            acc.sub_scaled_assign(&c2, k);
            assert_eq!(acc, c1.sub(&c2.scale(k)), "k={k}");
        }
    }

    #[test]
    fn trivial_has_no_key_dependence() {
        let (ctx, s, _) = setup();
        let ct = LweCiphertext::trivial(ctx.encode(5, 8), 32, ctx.q());
        assert_eq!(ct.decrypt(&ctx, &s, 8), 5);
    }

    #[test]
    fn mod_switch_preserves_message() {
        let (ctx, s, mut rng) = setup();
        let big_n = 256u64;
        for m in 0..4u64 {
            let ct = LweCiphertext::encrypt(&ctx, &s, ctx.encode(m, 4), &mut rng);
            let sw = ct.mod_switch(2 * big_n);
            // Phase in the 2N domain should decode to the same message.
            let dot =
                sw.a.iter()
                    .zip(&s)
                    .fold(0u64, |acc, (&ai, &si)| (acc + ai * si) % (2 * big_n));
            let phase = (sw.b + 2 * big_n - dot) % (2 * big_n);
            let dec = ((phase as f64 * 4.0 / (2.0 * big_n as f64)).round() as u64) % 4;
            assert_eq!(dec, m, "m={m}");
        }
    }
}
