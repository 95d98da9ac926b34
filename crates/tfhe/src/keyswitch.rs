//! LWE key switching: converts an LWE ciphertext under one key (the
//! flattened ring key, dimension `N`) to another (the small key,
//! dimension `n`) with base-`B_ks` digit decomposition.
//!
//! One key type, [`LweKsk`], serves both places the paper uses the
//! switch: TFHE's return to the small key after blind rotation
//! (§II-C3, [`key_switch`]) and scheme switching after sample
//! extraction (§II-D, `ufc_switch::CkksToLwe`, at the CKKS level-0
//! modulus). The key is stored once, digit-major, in one slab.
//!
//! One kernel, [`LweKsk::key_switch_batch`], does the
//! multiply-accumulate for both: it walks the slab once per batch and
//! sums `−d · row` into `i64` words, reducing mod `q` once at the end
//! (and every `K` rows, a period the gadget fixes) instead of one
//! 128-bit `mul_mod` per word. A single ciphertext is a batch of one.

use crate::context::TfheContext;
use crate::keys::TfheKeys;
use crate::lwe::{encrypt_parts, LweCiphertext};
use rand::Rng;
use ufc_math::gadget::Gadget;
use ufc_math::modops::{add_mod, from_signed, mul_mod};

/// An LWE key-switching key: `row(j, i) = LWE_{to}(ŝ_i · w_j)` for
/// input-key coefficient `i` and gadget digit `j`, at the gadget's
/// modulus.
///
/// Rows live digit-major in one slab: the row for digit `j` and input
/// position `i` starts at `(j·n + i)·(dim+1)` and holds the `dim` mask
/// words followed by the body. For a fixed digit the rows are
/// contiguous in `i`, the order the batch kernel walks.
#[derive(Debug, Clone)]
pub struct LweKsk {
    /// Decomposition gadget; its modulus is the key's modulus.
    gadget: Gadget,
    /// Input-key dimension `n` (rows per digit).
    n: usize,
    /// Output-key dimension `dim` (mask words per row).
    dim: usize,
    /// Rows the batch kernel accumulates between reductions
    /// (`fold_period` of the gadget).
    fold: usize,
    /// `levels · n` rows of `dim + 1` words.
    slab: Vec<u64>,
}

impl LweKsk {
    /// Encrypts every `ŝ_i · w_j` under `to_key` at the gadget's
    /// modulus with noise `sigma`. Rows are encrypted `i`-outer,
    /// `j`-inner (mask, then noise) and written straight into the slab.
    ///
    /// # Panics
    ///
    /// Panics if one balanced-digit term `(B/2)·(q−1)` cannot join a
    /// word reduced into `[0, q)` in an `i64`, so that the lazy kernel
    /// of [`Self::key_switch_batch`] could overflow: with 8-bit digits,
    /// a modulus of about `2^56` or more. Every key in the workspace
    /// uses a 31-bit TFHE `q` or a 36-bit CKKS `q_0`.
    pub fn generate<R: Rng + ?Sized>(
        gadget: Gadget,
        from_key: &[i64],
        to_key: &[u64],
        sigma: f64,
        rng: &mut R,
    ) -> Self {
        let fold = Self::fold_period(&gadget);
        assert!(
            fold >= 1,
            "modulus too wide for i64 key-switch accumulators"
        );
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
            fold,
            slab,
        }
    }

    /// How many rows [`Self::key_switch_batch`] may accumulate before
    /// it reduces: `K = ⌊(2^63 − q) / M⌋`, where `M = (B/2)·(q−1)` is
    /// the largest term `|d · row[w]|` a balanced digit makes. From a
    /// word reduced into `[0, q)`, `K` more terms keep it inside
    /// `[q − 2^63, 2^63)`. Zero when not even one term fits.
    ///
    /// At the workspace's shapes no fold runs: `K ≈ 2^25` for T1
    /// (2,048 rows), `2^27` for T4 (49,152 rows) and `2^20` for
    /// extraction at a 36-bit `q_0` (40,960 rows).
    fn fold_period(gadget: &Gadget) -> usize {
        let q = u128::from(gadget.modulus());
        let max_term = u128::from(gadget.base() / 2) * q.saturating_sub(1);
        let room = (1u128 << 63).saturating_sub(q);
        room.checked_div(max_term)
            .map_or(usize::MAX, |k| usize::try_from(k).unwrap_or(usize::MAX))
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
    #[cfg(test)]
    pub(crate) fn row(&self, j: usize, i: usize) -> &[u64] {
        let r = (j * self.n + i) * (self.dim + 1);
        &self.slab[r..r + self.dim + 1]
    }

    /// Key-switches a batch of ciphertexts under the input key:
    /// `out[b] = (0, bodies[b]) − Σ_{j,i} digit(b, j, i) · row(j, i)`,
    /// where `digit(b, j, i)` is balanced digit `j` of mask word `i`
    /// of batch member `b`. Callers that share digits across a batch
    /// (extraction) look them up from one table.
    ///
    /// The slab is walked once, in storage order (digit `j`, then
    /// position `i`), with the batch innermost. Each member adds
    /// `−d · row` into `dim + 1` `i64` words, skipping zero digits.
    /// The words are reduced once at the end, to `(body + acc) mod q`,
    /// and every `K = ⌊(2^63 − q) / ((B/2)·(q−1))⌋` rows, the most
    /// balanced-digit terms an `i64` holds (no fold runs at any
    /// workspace shape). The arithmetic is exact mod `q`, so the
    /// outputs equal the per-row `sub_mod(x, mul_mod(y, d))` chain bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// Panics if a digit is not balanced (`|d| > B/2`).
    pub fn key_switch_batch(
        &self,
        bodies: &[u64],
        digit: impl Fn(usize, usize, usize) -> i64,
    ) -> Vec<LweCiphertext> {
        let q = self.modulus();
        // fold ≥ 1 puts q below 2^63.
        let qi = q as i64;
        let half = self.gadget.base() / 2;
        let width = self.dim + 1;
        let mut acc = vec![0i64; bodies.len() * width];
        let mut rows_left = self.fold;
        for (r, row) in self.slab.chunks_exact(width).enumerate() {
            let (j, i) = (r / self.n, r % self.n);
            for (b, words) in acc.chunks_exact_mut(width).enumerate() {
                let d = digit(b, j, i);
                if d == 0 {
                    continue;
                }
                assert!(d.unsigned_abs() <= half, "digit {d} is not balanced");
                for (x, &y) in words.iter_mut().zip(row) {
                    *x -= d * y as i64;
                }
            }
            rows_left -= 1;
            if rows_left == 0 {
                acc.iter_mut().for_each(|x| *x = x.rem_euclid(qi));
                rows_left = self.fold;
            }
        }
        acc.chunks_exact(width)
            .zip(bodies)
            .map(|(words, &body)| {
                let (a, b) = words.split_at(self.dim);
                LweCiphertext {
                    a: a.iter().map(|x| x.rem_euclid(qi) as u64).collect(),
                    b: add_mod(body % q, b[0].rem_euclid(qi) as u64, q),
                    q,
                }
            })
            .collect()
    }

    /// Key-switches `ct` from the input key to the output key: a batch
    /// of one, with the balanced digits of every `a_i` in one table.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not of the input dimension or not at the key's
    /// modulus.
    pub fn key_switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        assert_eq!(ct.dim(), self.n, "input must be under the input key");
        assert_eq!(ct.q, self.modulus(), "modulus mismatch");
        let levels = self.gadget.levels();
        let mut digits = vec![0i64; self.n * levels];
        for (d, &ai) in digits.chunks_exact_mut(levels).zip(&ct.a) {
            self.gadget.decompose_into(ai, d);
        }
        self.key_switch_batch(&[ct.b], |_, j, i| digits[i * levels + j])
            .remove(0)
    }
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::modops::sub_mod;
    use ufc_math::poly::Poly;
    use ufc_math::prime::generate_ntt_prime;
    use ufc_math::sample::binary_vec;

    /// Scaled-subtraction oracle: `(a, b) −= k · row (mod q)`, where
    /// `row` is `a.len()` mask words then a body, one `mul_mod` per
    /// word: the reference the lazy batch kernel is checked against.
    fn sub_scaled(a: &mut [u64], b: &mut u64, row: &[u64], k: i64, q: u64) {
        let (row_a, row_b) = row.split_at(a.len());
        let ku = from_signed(k, q);
        for (x, &y) in a.iter_mut().zip(row_a) {
            *x = sub_mod(*x, mul_mod(y, ku, q), q);
        }
        *b = sub_mod(*b, mul_mod(row_b[0], ku, q), q);
    }

    /// [`LweKsk::key_switch_batch`] the per-word way: one trivial
    /// ciphertext per body, [`sub_scaled`] once per non-zero digit.
    fn key_switch_per_word(
        ksk: &LweKsk,
        bodies: &[u64],
        digit: impl Fn(usize, usize, usize) -> i64,
    ) -> Vec<LweCiphertext> {
        let q = ksk.modulus();
        bodies
            .iter()
            .enumerate()
            .map(|(b, &body)| {
                let mut out = LweCiphertext::trivial(body, ksk.dim, q);
                for j in 0..ksk.gadget.levels() {
                    for i in 0..ksk.n {
                        let d = digit(b, j, i);
                        if d != 0 {
                            sub_scaled(&mut out.a, &mut out.b, ksk.row(j, i), d, q);
                        }
                    }
                }
                out
            })
            .collect()
    }

    /// A key with the given gadget, shape and slab words (no
    /// encryption), for driving the kernel at chosen values.
    fn raw_key(gadget: Gadget, n: usize, dim: usize, word: impl FnMut() -> u64) -> LweKsk {
        let fold = LweKsk::fold_period(&gadget);
        assert!(fold >= 1);
        let slab = std::iter::repeat_with(word)
            .take(gadget.levels() * n * (dim + 1))
            .collect();
        LweKsk {
            gadget,
            n,
            dim,
            fold,
            slab,
        }
    }

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
    fn key_switch_matches_per_word_oracle() {
        let ctx = TfheContext::new(32, 256, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(53);
        let keys = TfheKeys::generate(&ctx, &mut rng);
        let ring_key = keys.ring_key_flat(ctx.q());
        let ksk = &keys.ksk;
        let levels = ksk.gadget.levels();
        for m in 0..4u64 {
            let ct = LweCiphertext::encrypt(&ctx, &ring_key, ctx.encode(m, 4), &mut rng);
            let digits: Vec<i64> =
                ct.a.iter()
                    .flat_map(|&a| ksk.gadget.decompose_scalar(a))
                    .collect();
            let want = key_switch_per_word(ksk, &[ct.b], |_, j, i| digits[i * levels + j]);
            assert_eq!(vec![ksk.key_switch(&ct)], want, "m={m}");
        }
    }

    #[test]
    fn worst_case_digits_and_words_fold_exactly() {
        // q ≈ 2^54 with 8-bit digits: K = 3, so a 16 × 7 key folds
        // about 37 times. Every word at q − 1 and every digit at
        // ±B/2 puts each accumulator at the edge of its bound.
        let q = (1u64 << 54) - 33;
        let gadget = Gadget::new(q, 8, 7);
        assert_eq!(LweKsk::fold_period(&gadget), 3);
        let ksk = raw_key(gadget, 16, 5, || q - 1);
        let bodies = [0, 1, q / 2, q - 1];
        let patterns: [fn(usize, usize, usize) -> i64; 4] = [
            |_, _, _| 128,
            |_, _, _| -128,
            |b, j, i| if (b + j + i) % 2 == 0 { 128 } else { -128 },
            |b, j, i| if (b * 7 + j * 3 + i) % 5 == 0 { 0 } else { 128 },
        ];
        for (p, digit) in patterns.iter().enumerate() {
            assert_eq!(
                ksk.key_switch_batch(&bodies, digit),
                key_switch_per_word(&ksk, &bodies, digit),
                "pattern {p}"
            );
        }
    }

    #[test]
    fn fold_period_covers_the_paper_gadgets() {
        // T1–T4 key-switch gadgets at their 31-bit q: K ≥ every row
        // the key holds, so no fold runs on a paper set.
        for id in ["T1", "T2", "T3", "T4"] {
            let p = ufc_isa::params::tfhe_params(id).unwrap();
            let q = generate_ntt_prime(p.n(), 31).unwrap();
            let g = Gadget::new(q, p.ks_log_base, p.ks_levels as usize);
            let k = LweKsk::fold_period(&g);
            assert!(k >= g.levels() * p.n(), "{id}: K = {k}");
        }
        // Extraction's 5 × 8-bit gadget at a 36-bit q0, ring 2^13.
        let q0 = generate_ntt_prime(8192, 36).unwrap();
        let k = LweKsk::fold_period(&Gadget::new(q0, 8, 5));
        assert!(k >= 5 * 8192, "extraction: K = {k}");
        assert!(k >= 1 << 19, "extraction: K = {k}");
    }

    #[test]
    #[should_panic(expected = "modulus too wide")]
    fn generate_rejects_a_modulus_too_wide_for_i64() {
        // (B/2)·(q−1) = 2^7 · (2^60 − 1) > 2^63: no term fits.
        let gadget = Gadget::new(1 << 60, 8, 8);
        assert_eq!(LweKsk::fold_period(&gadget), 0);
        let mut rng = StdRng::seed_from_u64(1);
        LweKsk::generate(gadget, &[1], &[1], 3.2, &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lazy kernel against the per-word oracle over random
        /// moduli (up to the fold bound, where K is small), bases,
        /// balanced digits, key words and bodies.
        #[test]
        fn prop_batch_kernel_matches_per_word_oracle(
            seed in any::<u64>(),
            bits in 2u32..=62,
            log_base in 1u32..=10,
            levels in 1usize..=4,
            batch in 1usize..=4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let q = rng.gen_range((1u64 << (bits - 1))..=(u64::MAX >> (64 - bits)));
            let gadget = Gadget::new(q, log_base, levels);
            prop_assume!(LweKsk::fold_period(&gadget) >= 1);
            let ksk = raw_key(gadget, 6, 3, || rng.gen_range(0..q));
            let half = (gadget.base() / 2) as i64;
            let digits: Vec<i64> = (0..batch * levels * 6)
                .map(|_| rng.gen_range(-half..=half))
                .collect();
            let bodies: Vec<u64> = (0..batch).map(|_| rng.gen_range(0..q)).collect();
            let digit = |b: usize, j: usize, i: usize| digits[(b * levels + j) * 6 + i];
            prop_assert_eq!(
                ksk.key_switch_batch(&bodies, digit),
                key_switch_per_word(&ksk, &bodies, digit),
                "q={} B=2^{} levels={}", q, log_base, levels
            );
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
