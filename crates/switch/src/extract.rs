//! Extraction: CKKS RLWE → TFHE LWE ciphertexts (§II-D).
//!
//! Pipeline: drop the CKKS ciphertext to level 0 (single limb `q_0`),
//! sample-extract the wanted coefficients as LWE ciphertexts under the
//! flattened CKKS ring key, key-switch each to the TFHE small key
//! (still at modulus `q_0`), and finally modulus-switch down to the
//! TFHE modulus. UFC runs the extraction/reduction steps on its
//! near-memory LWE unit (§IV-B4).
//!
//! Two paths are kept deliberately:
//!
//! * [`CkksToLwe::extract`] — the reference per-index path: one full
//!   gadget decomposition per (index, ring position) pair against the
//!   row-major KSK.
//! * [`CkksToLwe::extract_batch`] — the batched fast path. Every mask
//!   entry of every sample-extracted LWE is `±c1[k]` for some ring
//!   position `k`, so the whole batch needs only the `2N` digit tables
//!   `decompose(−c1[k])` / `decompose(c1[k])`, computed **once**; the
//!   digit loop then runs digit-major against a digit-major
//!   reorganized KSK (`DigitMajorKsk`), accumulating in place into
//!   preallocated LWE buffers. Because `Z_q` accumulation is exactly
//!   associative and commutative, the result is **bit-identical** to
//!   the per-index path (pinned by the conformance suite).

use crate::batch_tag;
use crate::error::SwitchError;
use rand::Rng;
use ufc_ckks::{Ciphertext as CkksCiphertext, CkksContext, Evaluator as CkksEvaluator, SecretKey};
use ufc_isa::trace::TraceOp;
use ufc_math::gadget::Gadget;
use ufc_math::modops::{from_signed, mul_mod, neg_mod};
use ufc_tfhe::{lwe::sub_scaled_parts, LweCiphertext, TfheContext, TfheKeys};

/// The extraction KSK reorganized digit-major into flat slabs: the row
/// for digit level `j` and ring position `i` starts at
/// `(j·N + i)·(dim+1)` — contiguous in `i` for a fixed digit, which is
/// exactly the order the batched digit loop walks.
#[derive(Debug)]
struct DigitMajorKsk {
    /// Mask slab: `a[(j·n + i)·dim ..][..dim]`.
    a: Vec<u64>,
    /// Body slab: `b[j·n + i]`.
    b: Vec<u64>,
    /// LWE dimension of each row.
    dim: usize,
    /// Ring dimension `N` (rows per digit level).
    n: usize,
}

impl DigitMajorKsk {
    /// Reorganizes the row-major `ksk[i][j]` into digit-major slabs.
    fn from_row_major(ksk: &[Vec<LweCiphertext>], levels: usize) -> Self {
        let n = ksk.len();
        let dim = ksk[0][0].dim();
        let mut a = Vec::with_capacity(levels * n * dim);
        let mut b = Vec::with_capacity(levels * n);
        for j in 0..levels {
            for row in ksk {
                a.extend_from_slice(&row[j].a);
                b.push(row[j].b);
            }
        }
        Self { a, b, dim, n }
    }

    /// The `(digit level, ring position)` row as `(mask, body)`.
    fn row(&self, j: usize, i: usize) -> (&[u64], u64) {
        let r = j * self.n + i;
        (&self.a[r * self.dim..(r + 1) * self.dim], self.b[r])
    }
}

/// Precomputed extraction key: switches LWEs under the flattened CKKS
/// ring key (dimension `N_ckks`, modulus `q_0`) to the TFHE small key.
#[derive(Debug)]
pub struct CkksToLwe {
    /// `ksk[i][j] = LWE_{s_tfhe, q0}(ŝ_ckks_i · w_j)`.
    ksk: Vec<Vec<LweCiphertext>>,
    /// The same key material digit-major, for the batched path.
    ksk_digit_major: DigitMajorKsk,
    /// Decomposition gadget at modulus `q_0`.
    gadget: Gadget,
    /// CKKS level-0 modulus.
    q0: u64,
    /// TFHE small-key dimension.
    lwe_dim: usize,
}

impl CkksToLwe {
    /// Generates the switching key. Needs both secret keys (a trusted
    /// key-generation step, as in any scheme-switching deployment).
    pub fn new<R: Rng + ?Sized>(
        ckks_ctx: &CkksContext,
        ckks_sk: &SecretKey,
        tfhe_ctx: &TfheContext,
        tfhe_keys: &TfheKeys,
        rng: &mut R,
    ) -> Self {
        let q0 = ckks_ctx.q_moduli()[0];
        // 8-bit digits, enough levels to cover q0 exactly.
        let log_base = 8u32;
        let levels = (64f64.min((q0 as f64).log2()).ceil() as usize).div_ceil(8);
        let gadget = Gadget::new(q0, log_base, levels);
        let ksk: Vec<Vec<LweCiphertext>> = ckks_sk
            .signed()
            .iter()
            .map(|&si| {
                (0..gadget.levels())
                    .map(|j| {
                        let m = mul_mod(from_signed(si, q0), gadget.weight(j), q0);
                        encrypt_lwe_at(q0, &tfhe_keys.lwe_sk, m, tfhe_ctx.sigma(), rng)
                    })
                    .collect()
            })
            .collect();
        let ksk_digit_major = DigitMajorKsk::from_row_major(&ksk, gadget.levels());
        Self {
            ksk,
            ksk_digit_major,
            gadget,
            q0,
            lwe_dim: tfhe_ctx.lwe_dim(),
        }
    }

    /// Extracts coefficients `indices` of the CKKS ciphertext as TFHE
    /// LWE ciphertexts (at the TFHE modulus, under the small key) —
    /// the reference per-index path, one gadget decomposition per
    /// (index, ring position) pair.
    ///
    /// The ciphertext must carry its payload in *coefficients* (after
    /// a SlotToCoeff transform in a full application); the message
    /// scale should be `q_0 / space` for a TFHE message space of
    /// `space`.
    ///
    /// # Errors
    ///
    /// [`SwitchError::IndexOutOfRange`] if any index is not below the
    /// ring dimension.
    pub fn extract(
        &self,
        ev: &CkksEvaluator,
        ct: &CkksCiphertext,
        indices: &[usize],
        tfhe_ctx: &TfheContext,
    ) -> Result<Vec<LweCiphertext>, SwitchError> {
        let _span = ufc_trace::span_n("switch", "extract", indices.len() as u64);
        ev.record_public(TraceOp::Extract {
            level: ct.level as u32,
            count: indices.len() as u32,
        });
        let mut ct0 = ev.drop_to_level(ct, 0);
        ev.context().to_coeff(&mut ct0.c0);
        ev.context().to_coeff(&mut ct0.c1);
        let c0 = ct0.c0.limb(0);
        let c1 = ct0.c1.limb(0);
        let n = c0.len();
        check_indices(indices, n)?;
        Ok(indices
            .iter()
            .map(|&idx| {
                // CKKS phase = c0 + c1·s; LWE convention is b − <a,s>,
                // so b = c0_idx and a = −extract_vec(c1).
                let mut a = vec![0u64; n];
                for (j, slot) in a.iter_mut().enumerate() {
                    let v = if j <= idx {
                        c1[idx - j]
                    } else {
                        neg_mod(c1[n + idx - j], self.q0)
                    };
                    *slot = neg_mod(v, self.q0);
                }
                let big = LweCiphertext {
                    a,
                    b: c0[idx],
                    q: self.q0,
                };
                let switched = self.key_switch(&big);
                switched.mod_switch(tfhe_ctx.q())
            })
            .collect())
    }

    /// Batched extraction fast path: bit-identical to calling
    /// [`CkksToLwe::extract`] with the same indices, but the gadget
    /// decomposition work is shared across the whole batch.
    ///
    /// After sample extraction, mask entry `i` of the LWE for index
    /// `idx` is `−c1[idx−i]` (for `i ≤ idx`) or `+c1[N+idx−i]` (wrap),
    /// so the only values ever decomposed are `−c1[k]` and `c1[k]` for
    /// the `N` ring positions `k`. This path builds those `2N` digit
    /// tables once, then runs the key-switch accumulation digit-major
    /// against the digit-major KSK (`DigitMajorKsk`) with the in-place
    /// [`sub_scaled_parts`] kernel — no per-digit ciphertext clones,
    /// and `2N` decompositions total instead of `batch·N`.
    ///
    /// # Errors
    ///
    /// [`SwitchError::IndexOutOfRange`] if any index is not below the
    /// ring dimension.
    pub fn extract_batch(
        &self,
        ev: &CkksEvaluator,
        ct: &CkksCiphertext,
        indices: &[usize],
        tfhe_ctx: &TfheContext,
    ) -> Result<Vec<LweCiphertext>, SwitchError> {
        let _span = ufc_trace::span_full(
            "switch",
            "extract_batch",
            batch_tag(indices.len()),
            indices.len() as u64,
        );
        ev.record_public(TraceOp::Extract {
            level: ct.level as u32,
            count: indices.len() as u32,
        });
        let mut ct0 = ev.drop_to_level(ct, 0);
        ev.context().to_coeff(&mut ct0.c0);
        ev.context().to_coeff(&mut ct0.c1);
        let c0 = ct0.c0.limb(0);
        let c1 = ct0.c1.limb(0);
        let n = c0.len();
        check_indices(indices, n)?;
        let q0 = self.q0;
        let levels = self.gadget.levels();

        // Shared digit tables: mask entries are neg_mod(c1[k]) when the
        // ring position precedes the index, c1[k] on the negacyclic
        // wrap (the double negation cancels exactly in Z_q).
        let dec_neg: Vec<Vec<i64>> = c1
            .iter()
            .map(|&v| self.gadget.decompose_scalar(neg_mod(v, q0)))
            .collect();
        let dec_pos: Vec<Vec<i64>> = c1
            .iter()
            .map(|&v| self.gadget.decompose_scalar(v))
            .collect();

        // Preallocated accumulators, one per requested index.
        let mut out_a = vec![vec![0u64; self.lwe_dim]; indices.len()];
        let mut out_b: Vec<u64> = indices.iter().map(|&idx| c0[idx]).collect();

        // Digit-major accumulation: for a fixed (digit level j, ring
        // position i) the KSK row is loaded once and applied to every
        // batch element that has a non-zero digit there. Z_q addition
        // is associative and commutative, so reordering the per-index
        // (i-major) loop into this j-major loop is bit-identical.
        for j in 0..levels {
            for i in 0..n {
                let (row_a, row_b) = self.ksk_digit_major.row(j, i);
                for (bi, &idx) in indices.iter().enumerate() {
                    let d = if i <= idx {
                        dec_neg[idx - i][j]
                    } else {
                        dec_pos[n + idx - i][j]
                    };
                    if d == 0 {
                        continue;
                    }
                    sub_scaled_parts(&mut out_a[bi], &mut out_b[bi], row_a, row_b, d, q0);
                }
            }
        }

        Ok(out_a
            .into_iter()
            .zip(out_b)
            .map(|(a, b)| LweCiphertext { a, b, q: q0 }.mod_switch(tfhe_ctx.q()))
            .collect())
    }

    /// LWE key switch at modulus `q_0` from the ring key to the small
    /// key.
    fn key_switch(&self, ct: &LweCiphertext) -> LweCiphertext {
        let mut out = LweCiphertext::trivial(ct.b, self.lwe_dim, self.q0);
        for (i, &ai) in ct.a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &d) in self.gadget.decompose_scalar(ai).iter().enumerate() {
                if d == 0 {
                    continue;
                }
                out = out.sub(&self.ksk[i][j].scale(d));
            }
        }
        out
    }
}

/// Validates extraction indices against the ring dimension.
fn check_indices(indices: &[usize], n: usize) -> Result<(), SwitchError> {
    match indices.iter().find(|&&idx| idx >= n) {
        Some(&index) => Err(SwitchError::IndexOutOfRange { index, n }),
        None => Ok(()),
    }
}

/// Encrypts an LWE sample at an arbitrary modulus (the TFHE context is
/// fixed at its own `q`, so extraction keys need this generalized
/// helper).
fn encrypt_lwe_at<R: Rng + ?Sized>(
    q: u64,
    s: &[u64],
    m: u64,
    sigma: f64,
    rng: &mut R,
) -> LweCiphertext {
    use ufc_math::modops::add_mod;
    let a: Vec<u64> = (0..s.len()).map(|_| rng.gen_range(0..q)).collect();
    let dot = a.iter().zip(s).fold(0u64, |acc, (&ai, &si)| {
        add_mod(acc, mul_mod(ai, si % q, q), q)
    });
    let e = from_signed(ufc_math::sample::gaussian(rng, sigma), q);
    LweCiphertext {
        b: add_mod(add_mod(dot, m % q, q), e, q),
        a,
        q,
    }
}

/// Encodes integer messages into CKKS *coefficients* at scale
/// `q_0/space` — the payload layout extraction expects (what
/// SlotToCoeff produces in a full pipeline).
pub fn encode_coefficients(
    ctx: &CkksContext,
    messages: &[u64],
    space: u64,
) -> ufc_math::plane::RnsPlane {
    let q0 = ctx.q_moduli()[0];
    let delta = q0 / space;
    let signed: Vec<i64> = (0..ctx.n())
        .map(|i| {
            let m = messages.get(i).copied().unwrap_or(0) % space;
            (m * delta) as i64
        })
        .collect();
    ctx.eval_from_signed(&signed, ctx.max_level() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_ckks::KeySet;

    fn setup() -> (
        CkksEvaluator,
        SecretKey,
        KeySet,
        TfheContext,
        TfheKeys,
        CkksToLwe,
        StdRng,
    ) {
        let ckks_ctx = CkksContext::new(64, 3, 2, 2, 36, 34);
        let mut rng = StdRng::seed_from_u64(81);
        let sk = SecretKey::generate(&ckks_ctx, &mut rng);
        let keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
        let tfhe_ctx = TfheContext::new(64, 256, 7, 3, 6, 4);
        let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
        let bridge = CkksToLwe::new(&ckks_ctx, &sk, &tfhe_ctx, &tfhe_keys, &mut rng);
        (
            CkksEvaluator::new(ckks_ctx),
            sk,
            keys,
            tfhe_ctx,
            tfhe_keys,
            bridge,
            rng,
        )
    }

    #[test]
    fn extract_recovers_coefficient_messages() {
        let (ev, _sk, keys, tfhe_ctx, tfhe_keys, bridge, mut rng) = setup();
        let messages: Vec<u64> = (0..64).map(|i| i % 4).collect();
        let pt = encode_coefficients(ev.context(), &messages, 8);
        let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);
        let lwes = bridge.extract(&ev, &ct, &[0, 1, 5, 33], &tfhe_ctx).unwrap();
        assert_eq!(lwes.len(), 4);
        for (lwe, &idx) in lwes.iter().zip(&[0usize, 1, 5, 33]) {
            assert_eq!(lwe.dim(), 64);
            assert_eq!(lwe.q, tfhe_ctx.q());
            assert_eq!(
                lwe.decrypt(&tfhe_ctx, &tfhe_keys.lwe_sk, 8),
                messages[idx] % 8,
                "idx={idx}"
            );
        }
    }

    #[test]
    fn extracted_lwes_support_tfhe_bootstrap() {
        // End-to-end §II-D: CKKS → extract → TFHE functional bootstrap.
        let (ev, _sk, keys, tfhe_ctx, tfhe_keys, bridge, mut rng) = setup();
        let messages: Vec<u64> = vec![1, 3, 2, 0];
        let pt = encode_coefficients(ev.context(), &messages, 8);
        let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);
        let lwes = bridge.extract(&ev, &ct, &[0, 1, 2, 3], &tfhe_ctx).unwrap();
        let tv = ufc_tfhe::lut_test_vector(&tfhe_ctx, |m| (m + 1) % 8, 8);
        for (lwe, &m) in lwes.iter().zip(&messages) {
            let out = ufc_tfhe::programmable_bootstrap(&tfhe_ctx, &tfhe_keys, lwe, &tv);
            assert_eq!(out.decrypt(&tfhe_ctx, &tfhe_keys.lwe_sk, 8), (m + 1) % 8);
        }
    }

    #[test]
    fn extract_batch_is_bit_identical_to_per_index() {
        let (ev, _sk, keys, tfhe_ctx, _tk, bridge, mut rng) = setup();
        let messages: Vec<u64> = (0..64).map(|i| (i * 3) % 8).collect();
        let pt = encode_coefficients(ev.context(), &messages, 8);
        let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);
        let indices = [0usize, 1, 5, 13, 33, 63, 5];
        let per_index = bridge.extract(&ev, &ct, &indices, &tfhe_ctx).unwrap();
        let batched = bridge.extract_batch(&ev, &ct, &indices, &tfhe_ctx).unwrap();
        assert_eq!(per_index, batched);
    }

    #[test]
    fn out_of_range_index_is_a_typed_error() {
        let (ev, _sk, keys, tfhe_ctx, _tk, bridge, mut rng) = setup();
        let pt = encode_coefficients(ev.context(), &[1], 8);
        let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);
        let want = Err(SwitchError::IndexOutOfRange { index: 64, n: 64 });
        assert_eq!(bridge.extract(&ev, &ct, &[0, 64], &tfhe_ctx), want);
        assert_eq!(bridge.extract_batch(&ev, &ct, &[0, 64], &tfhe_ctx), want);
    }

    #[test]
    fn extraction_records_trace() {
        let (ev, _sk, keys, tfhe_ctx, _tk, bridge, mut rng) = setup();
        let pt = encode_coefficients(ev.context(), &[1, 2], 8);
        let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), &mut rng);
        let _ = ev.take_trace();
        let _ = bridge.extract(&ev, &ct, &[0, 1], &tfhe_ctx).unwrap();
        let tr = ev.take_trace();
        assert!(tr
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::Extract { count: 2, .. })));
    }
}
