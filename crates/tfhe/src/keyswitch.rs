//! LWE key switching: converts an LWE ciphertext under one key (the
//! flattened ring key, dimension `N`) to another (the small key,
//! dimension `n`) with base-`B_ks` digit decomposition.
//!
//! One key type, [`LweKsk`], serves both places the paper uses the
//! switch: TFHE's return to the small key after blind rotation
//! (§II-C3, [`key_switch`]) and scheme switching after sample
//! extraction (§II-D, `ufc_switch::CkksToLwe`, at the CKKS level-0
//! modulus). The key is stored once, digit-major, in one slab.

use crate::context::TfheContext;
use crate::keys::TfheKeys;
use crate::lwe::{encrypt_parts, LweCiphertext};
use rand::Rng;
use ufc_math::gadget::Gadget;
use ufc_math::modops::{from_signed, mul_mod, sub_mod};

/// An LWE key-switching key: `row(j, i) = LWE_{to}(ŝ_i · w_j)` for
/// input-key coefficient `i` and gadget digit `j`, at the gadget's
/// modulus.
///
/// Rows live digit-major in one slab: the row for digit `j` and input
/// position `i` starts at `(j·n + i)·(dim+1)` and holds the `dim` mask
/// words followed by the body. For a fixed digit the rows are
/// contiguous in `i`, the order a batched digit-major loop walks.
#[derive(Debug, Clone)]
pub struct LweKsk {
    /// Decomposition gadget; its modulus is the key's modulus.
    gadget: Gadget,
    /// Input-key dimension `n` (rows per digit).
    n: usize,
    /// Output-key dimension `dim` (mask words per row).
    dim: usize,
    /// `levels · n` rows of `dim + 1` words.
    slab: Vec<u64>,
}

impl LweKsk {
    /// Encrypts every `ŝ_i · w_j` under `to_key` at the gadget's
    /// modulus with noise `sigma`. Rows are encrypted `i`-outer,
    /// `j`-inner (mask, then noise) and written straight into the slab.
    pub fn generate<R: Rng + ?Sized>(
        gadget: Gadget,
        from_key: &[i64],
        to_key: &[u64],
        sigma: f64,
        rng: &mut R,
    ) -> Self {
        let q = gadget.modulus();
        let (n, dim) = (from_key.len(), to_key.len());
        let mut slab = vec![0u64; gadget.levels() * n * (dim + 1)];
        for (i, &si) in from_key.iter().enumerate() {
            let s = from_signed(si, q);
            for j in 0..gadget.levels() {
                let r = (j * n + i) * (dim + 1);
                let (a, b) = slab[r..r + dim + 1].split_at_mut(dim);
                b[0] = encrypt_parts(a, to_key, mul_mod(s, gadget.weight(j), q), q, sigma, rng);
            }
        }
        Self {
            gadget,
            n,
            dim,
            slab,
        }
    }

    /// The decomposition gadget.
    pub fn gadget(&self) -> &Gadget {
        &self.gadget
    }

    /// The key's modulus.
    pub fn modulus(&self) -> u64 {
        self.gadget.modulus()
    }

    /// Input-key dimension: the mask length [`Self::key_switch`] takes.
    pub fn input_dim(&self) -> usize {
        self.n
    }

    /// Output-key dimension: the mask length [`Self::key_switch`]
    /// returns.
    pub fn output_dim(&self) -> usize {
        self.dim
    }

    /// The `(digit j, input position i)` row: mask words, then body.
    pub(crate) fn row(&self, j: usize, i: usize) -> &[u64] {
        let r = (j * self.n + i) * (self.dim + 1);
        &self.slab[r..r + self.dim + 1]
    }

    /// `out −= d · row(j, i)`: one digit of a key switch, for callers
    /// that share digit tables across a batch and walk the key
    /// digit-major. A zero digit is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not at the key's modulus or of its output
    /// dimension.
    pub fn sub_digit_row(&self, out: &mut LweCiphertext, j: usize, i: usize, d: i64) {
        assert_eq!(out.q, self.modulus(), "modulus mismatch");
        assert_eq!(out.dim(), self.dim, "dimension mismatch");
        if d != 0 {
            sub_scaled(&mut out.a, &mut out.b, self.row(j, i), d, out.q);
        }
    }

    /// Key-switches `ct` from the input key to the output key:
    /// `out = (0, b) − Σ_{i,j} d_{i,j} · row(j, i)`, where `d_{i,j}`
    /// are the balanced digits of `a_i`.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not of the input dimension or not at the key's
    /// modulus.
    pub fn key_switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        assert_eq!(ct.dim(), self.n, "input must be under the input key");
        assert_eq!(ct.q, self.modulus(), "modulus mismatch");
        let mut out = LweCiphertext::trivial(ct.b, self.dim, self.modulus());
        for (i, &ai) in ct.a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &d) in self.gadget.decompose_scalar(ai).iter().enumerate() {
                self.sub_digit_row(&mut out, j, i, d);
            }
        }
        out
    }
}

/// Scaled-subtraction kernel: `(a, b) −= k · row (mod q)`, where `row`
/// is `a.len()` mask words then a body. Elementwise
/// `sub_mod(x, mul_mod(y, from_signed(k, q), q), q)`, the exact
/// composition of [`LweCiphertext::scale`] and [`LweCiphertext::sub`]
/// without their two allocations.
fn sub_scaled(a: &mut [u64], b: &mut u64, row: &[u64], k: i64, q: u64) {
    let (row_a, row_b) = row.split_at(a.len());
    let ku = from_signed(k, q);
    for (x, &y) in a.iter_mut().zip(row_a) {
        *x = sub_mod(*x, mul_mod(y, ku, q), q);
    }
    *b = sub_mod(*b, mul_mod(row_b[0], ku, q), q);
}

/// Key-switches `ct` (under the ring key, dimension `N`) to the small
/// LWE key with the key set's [`LweKsk`].
///
/// # Panics
///
/// Panics if `ct` is not of ring dimension.
pub fn key_switch(ctx: &TfheContext, keys: &TfheKeys, ct: &LweCiphertext) -> LweCiphertext {
    let _span = ufc_trace::span_n("tfhe", "key_switch", ctx.lwe_dim() as u64);
    assert_eq!(ct.dim(), ctx.ring_dim(), "input must be under the ring key");
    keys.ksk.key_switch(ct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlwe::RlweCiphertext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::poly::Poly;
    use ufc_math::sample::binary_vec;

    #[test]
    fn sub_scaled_matches_allocating_form() {
        let ctx = TfheContext::new(32, 64, 7, 3, 4, 3);
        let mut rng = StdRng::seed_from_u64(21);
        let s = binary_vec(&mut rng, 32);
        let c1 = LweCiphertext::encrypt(&ctx, &s, ctx.encode(2, 8), &mut rng);
        let c2 = LweCiphertext::encrypt(&ctx, &s, ctx.encode(3, 8), &mut rng);
        let row: Vec<u64> = c2.a.iter().copied().chain([c2.b]).collect();
        for k in [-3i64, -1, 0, 2, 5] {
            let mut acc = c1.clone();
            sub_scaled(&mut acc.a, &mut acc.b, &row, k, acc.q);
            assert_eq!(acc, c1.sub(&c2.scale(k)), "k={k}");
        }
    }

    #[test]
    fn key_switch_preserves_message() {
        let ctx = TfheContext::new(32, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(51);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        let ring_key = keys.ring_key_flat(ctx.q());
        for m in 0..4u64 {
            let enc = ctx.encode(m, 4);
            let big = LweCiphertext::encrypt(&ctx, &ring_key, enc, &mut rng);
            let small = key_switch(&ctx, &keys, &big);
            assert_eq!(small.dim(), 32);
            assert_eq!(small.decrypt(&ctx, &keys.lwe_sk, 4), m, "m={m}");
        }
    }

    #[test]
    fn key_switch_after_extraction() {
        // The full §II-D pipeline step: RLWE → extract → key switch.
        let ctx = TfheContext::new(32, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(52);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        let m = Poly::from_coeffs((0..256u64).map(|i| ctx.encode(i % 4, 4)).collect(), ctx.q());
        let rlwe = RlweCiphertext::encrypt(&ctx, &keys.ring_sk, &m, &mut rng);
        for idx in [0usize, 7, 100] {
            let extracted = rlwe.sample_extract(idx);
            let switched = key_switch(&ctx, &keys, &extracted);
            assert_eq!(
                switched.decrypt(&ctx, &keys.lwe_sk, 4),
                idx as u64 % 4,
                "idx={idx}"
            );
        }
    }
}
