//! Extraction: CKKS RLWE → TFHE LWE ciphertexts (§II-D).
//!
//! Pipeline: drop the CKKS ciphertext to level 0 (single limb `q_0`),
//! sample-extract the wanted coefficients as LWE ciphertexts under the
//! flattened CKKS ring key, key-switch each to the TFHE small key
//! (still at modulus `q_0`), and finally modulus-switch down to the
//! TFHE modulus. UFC runs the extraction/reduction steps on its
//! near-memory LWE unit (§IV-B4).
//!
//! The key switch uses `ufc-tfhe`'s [`LweKsk`], the same key type and
//! kernel as TFHE's own key switch, at modulus `q_0`; the key is
//! stored once, digit-major. Two paths read it:
//!
//! * [`CkksToLwe::extract`] — the reference per-index path, kept as
//!   the oracle: one [`LweKsk::key_switch`] per index, one gadget
//!   decomposition per (index, ring position) pair, one walk of the
//!   slab per index.
//! * [`CkksToLwe::extract_batch`] — the batched fast path. Every mask
//!   entry of every sample-extracted LWE is `±c1[k]` for some ring
//!   position `k`, so the whole batch needs only the `2N` digit rows
//!   of `c1[k]` and `−c1[k]`, decomposed **once** into one flat table;
//!   one [`LweKsk::key_switch_batch`] call then walks the slab once
//!   for the whole batch, accumulating every member lazily. Because
//!   `Z_q` accumulation is exactly associative and commutative, the
//!   result is **bit-identical** to the per-index path (pinned by the
//!   conformance suite).

use crate::batch_tag;
use crate::error::SwitchError;
use rand::Rng;
use ufc_ckks::{Ciphertext as CkksCiphertext, CkksContext, Evaluator as CkksEvaluator, SecretKey};
use ufc_isa::trace::TraceOp;
use ufc_math::gadget::Gadget;
use ufc_math::modops::neg_mod;
use ufc_tfhe::{LweCiphertext, LweKsk, TfheContext, TfheKeys};

/// Precomputed extraction key: switches LWEs under the flattened CKKS
/// ring key (dimension `N_ckks`, modulus `q_0`) to the TFHE small key.
#[derive(Debug)]
pub struct CkksToLwe {
    /// `LWE_{s_tfhe, q0}(ŝ_ckks_i · w_j)`, 8-bit digits covering `q_0`.
    ksk: LweKsk,
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
        let ksk = LweKsk::generate(
            gadget,
            ckks_sk.signed(),
            &tfhe_keys.lwe_sk,
            tfhe_ctx.sigma(),
            rng,
        );
        Self { ksk }
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
    /// Checked before any work:
    /// [`SwitchError::RingDimensionMismatch`] or
    /// [`SwitchError::ModulusMismatch`] if `ct` or `ev` belongs to
    /// another CKKS context than the key (ring dimension or level-0
    /// modulus), [`SwitchError::IndexOutOfRange`] if any index is not
    /// below the ring dimension.
    pub fn extract(
        &self,
        ev: &CkksEvaluator,
        ct: &CkksCiphertext,
        indices: &[usize],
        tfhe_ctx: &TfheContext,
    ) -> Result<Vec<LweCiphertext>, SwitchError> {
        self.check_input(ev, ct, indices)?;
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
        let q0 = self.ksk.modulus();
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
                        neg_mod(c1[n + idx - j], q0)
                    };
                    *slot = neg_mod(v, q0);
                }
                let big = LweCiphertext {
                    a,
                    b: c0[idx],
                    q: q0,
                };
                self.ksk.key_switch(&big).mod_switch(tfhe_ctx.q())
            })
            .collect())
    }

    /// Batched extraction fast path: bit-identical to calling
    /// [`CkksToLwe::extract`] with the same indices, but the gadget
    /// decomposition and the walk over the key are shared across the
    /// whole batch.
    ///
    /// After sample extraction, mask entry `i` of the LWE for index
    /// `idx` is `−c1[idx−i]` (for `i ≤ idx`) or `+c1[N+idx−i]` (wrap),
    /// so the only values ever decomposed are `c1[k]` and `−c1[k]` for
    /// the `N` ring positions `k`. This path decomposes the ones the
    /// batch reads once into one flat table — `N + max(idx) − min(idx)`
    /// values, `N` for a single index, at most `2N − 1` — then runs one
    /// [`LweKsk::key_switch_batch`] over it, in place of `batch·N`
    /// decompositions and `batch` passes over the key.
    ///
    /// # Errors
    ///
    /// Checked before any work:
    /// [`SwitchError::RingDimensionMismatch`] or
    /// [`SwitchError::ModulusMismatch`] if `ct` or `ev` belongs to
    /// another CKKS context than the key (ring dimension or level-0
    /// modulus), [`SwitchError::IndexOutOfRange`] if any index is not
    /// below the ring dimension.
    pub fn extract_batch(
        &self,
        ev: &CkksEvaluator,
        ct: &CkksCiphertext,
        indices: &[usize],
        tfhe_ctx: &TfheContext,
    ) -> Result<Vec<LweCiphertext>, SwitchError> {
        self.check_input(ev, ct, indices)?;
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
        let q0 = self.ksk.modulus();
        let gadget = self.ksk.gadget();
        let levels = gadget.levels();

        // One digit table over entries t, `levels` digits per entry:
        // entry t < N holds c1[t], entry N + k holds −c1[k]. Mask word
        // i of the LWE for index idx is entry N + idx − i either way:
        // −c1[idx − i] while i ≤ idx, c1[N + idx − i] on the
        // negacyclic wrap (the double negation cancels exactly in Z_q).
        // The batch reads t ∈ [min(idx) + 1, N + max(idx)], so only
        // those entries are decomposed; the table starts at `lo`.
        let lo = indices.iter().min().map_or(n, |&m| m + 1);
        let hi = indices.iter().max().map_or(n, |&m| n + m + 1);
        let mut digits = vec![0i64; (hi - lo) * levels];
        let (pos, neg) = digits.split_at_mut((n - lo) * levels);
        for (d, &v) in pos.chunks_exact_mut(levels).zip(&c1[lo..]) {
            gadget.decompose_into(v, d);
        }
        for (d, &v) in neg.chunks_exact_mut(levels).zip(&c1[..hi - n]) {
            gadget.decompose_into(neg_mod(v, q0), d);
        }
        let bodies: Vec<u64> = indices.iter().map(|&idx| c0[idx]).collect();
        let out = self.ksk.key_switch_batch(&bodies, |b, j, i| {
            digits[(n + indices[b] - i - lo) * levels + j]
        });

        Ok(out
            .into_iter()
            .map(|lwe| lwe.mod_switch(tfhe_ctx.q()))
            .collect())
    }

    /// Validates an extraction request against the key: the
    /// ciphertext and the evaluator must share the key's CKKS ring
    /// dimension and level-0 modulus, and every index must name a ring
    /// coefficient.
    fn check_input(
        &self,
        ev: &CkksEvaluator,
        ct: &CkksCiphertext,
        indices: &[usize],
    ) -> Result<(), SwitchError> {
        let (n, q0) = (self.ksk.input_dim(), self.ksk.modulus());
        let ctx = ev.context();
        for (got_n, got_q0) in [
            (ct.c0.dim(), ct.c0.modulus(0)),
            (ctx.n(), ctx.q_moduli()[0]),
        ] {
            if got_n != n {
                return Err(SwitchError::RingDimensionMismatch {
                    got: got_n,
                    expected: n,
                });
            }
            if got_q0 != q0 {
                return Err(SwitchError::ModulusMismatch {
                    got: got_q0,
                    expected: q0,
                });
            }
        }
        match indices.iter().find(|&&idx| idx >= n) {
            Some(&index) => Err(SwitchError::IndexOutOfRange { index, n }),
            None => Ok(()),
        }
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

    /// Ciphertexts (with their evaluators) from CKKS contexts the key
    /// was not built for: a smaller ring, a larger ring, and the same
    /// ring at another level-0 modulus, each with the error it must
    /// give.
    fn foreign_inputs(
        bridge: &CkksToLwe,
        rng: &mut StdRng,
    ) -> Vec<(CkksEvaluator, CkksCiphertext, SwitchError)> {
        let (n, q0) = (bridge.ksk.input_dim(), bridge.ksk.modulus());
        [
            CkksContext::new(32, 3, 2, 2, 36, 34),
            CkksContext::new(128, 3, 2, 2, 36, 34),
            CkksContext::new(64, 3, 2, 2, 37, 34),
        ]
        .into_iter()
        .map(|ctx| {
            let want = if ctx.n() != n {
                SwitchError::RingDimensionMismatch {
                    got: ctx.n(),
                    expected: n,
                }
            } else {
                SwitchError::ModulusMismatch {
                    got: ctx.q_moduli()[0],
                    expected: q0,
                }
            };
            let sk = SecretKey::generate(&ctx, rng);
            let keys = KeySet::generate(&ctx, &sk, rng);
            let pt = encode_coefficients(&ctx, &[1, 2], 8);
            let ev = CkksEvaluator::new(ctx);
            let ct = ev.encrypt_plaintext(&pt, &keys, ev.context().max_level(), rng);
            (ev, ct, want)
        })
        .collect()
    }

    #[test]
    fn extract_rejects_a_foreign_context() {
        let (ev, _sk, keys, tfhe_ctx, _tk, bridge, mut rng) = setup();
        let own = encode_coefficients(ev.context(), &[1], 8);
        let own = ev.encrypt_plaintext(&own, &keys, ev.context().max_level(), &mut rng);
        for (foreign_ev, ct, want) in foreign_inputs(&bridge, &mut rng) {
            let got = bridge.extract(&foreign_ev, &ct, &[0, 1], &tfhe_ctx);
            assert_eq!(got, Err(want.clone()));
            // A foreign ciphertext is caught under the key's own
            // evaluator too, and a foreign evaluator with the key's
            // own ciphertext.
            assert_eq!(bridge.extract(&ev, &ct, &[0], &tfhe_ctx), Err(want.clone()));
            assert_eq!(
                bridge.extract(&foreign_ev, &own, &[0], &tfhe_ctx),
                Err(want)
            );
        }
    }

    #[test]
    fn extract_batch_rejects_a_foreign_context() {
        let (ev, _sk, keys, tfhe_ctx, _tk, bridge, mut rng) = setup();
        let own = encode_coefficients(ev.context(), &[1], 8);
        let own = ev.encrypt_plaintext(&own, &keys, ev.context().max_level(), &mut rng);
        for (foreign_ev, ct, want) in foreign_inputs(&bridge, &mut rng) {
            let got = bridge.extract_batch(&foreign_ev, &ct, &[0, 1], &tfhe_ctx);
            assert_eq!(got, Err(want.clone()));
            assert_eq!(
                bridge.extract_batch(&ev, &ct, &[0], &tfhe_ctx),
                Err(want.clone())
            );
            assert_eq!(
                bridge.extract_batch(&foreign_ev, &own, &[0], &tfhe_ctx),
                Err(want)
            );
        }
    }

    #[test]
    fn rejected_requests_record_no_trace() {
        let (ev, _sk, _keys, tfhe_ctx, _tk, bridge, mut rng) = setup();
        let (_, ct, _) = foreign_inputs(&bridge, &mut rng).remove(0);
        let _ = ev.take_trace();
        assert!(bridge.extract(&ev, &ct, &[0], &tfhe_ctx).is_err());
        assert!(bridge.extract_batch(&ev, &ct, &[0], &tfhe_ctx).is_err());
        assert!(ev.take_trace().ops.is_empty());
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
