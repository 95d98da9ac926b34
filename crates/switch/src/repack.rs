//! Repacking: TFHE LWE ciphertexts → one CKKS RLWE ciphertext
//! (§II-D, Pegasus-style).
//!
//! Given LWEs `(a_j, b_j)` under the TFHE small key `s`, the packed
//! slot values are the phases `μ_j = (b_j − <a_j, s>)/q_t`. With a
//! CKKS encryption of `s` (the *repacking key*), the phase evaluation
//! is a homomorphic linear transform with the plaintext matrix
//! `−A/q_t` plus the plaintext vector `b/q_t`. The result equals
//! `μ_j − κ_j` for integer wrap counts `κ_j`; the final sine-based
//! modular reduction (the "bootstrapping" of the repacking algorithm)
//! removes the integer part.
//!
//! The mat-vec is the one CKKS slot transform,
//! [`ufc_ckks::bootstrap::LinearTransform`], over a span of `n`
//! diagonals: baby-step/giant-step with `g − 1` hoisted baby
//! rotations of the repacking key (`g = ⌈√n⌉`) and `⌈n/g⌉ − 1` giant
//! rotations of the inner sums, so only `O(√n)` rotation keys instead
//! of the naive `n − 1`. [`LweToCkks::repack_naive`] keeps the n-step reference
//! path for conformance and benchmarking.

use crate::batch_tag;
use crate::error::SwitchError;
use rand::Rng;
use ufc_ckks::bootstrap::{bsgs_split, bsgs_steps, eval_poly, LinearTransform};
use ufc_ckks::{Ciphertext as CkksCiphertext, Evaluator as CkksEvaluator, KeySet, SecretKey};
use ufc_isa::trace::TraceOp;
use ufc_math::modops::to_signed;
use ufc_tfhe::{LweCiphertext, TfheContext, TfheKeys};

/// The repacking bridge: a CKKS encryption of the TFHE small key.
#[derive(Debug)]
pub struct LweToCkks {
    /// CKKS encryption of the TFHE key bits, one per slot (cycled to
    /// fill all slots so rotations wrap consistently).
    key_ct: CkksCiphertext,
    /// TFHE LWE dimension `n`, the span of the mat-vec transform.
    lwe_dim: usize,
}

impl LweToCkks {
    /// Encrypts the TFHE key under CKKS (trusted setup step) and
    /// generates the `O(√n)` BSGS rotation keys [`bsgs_steps`]`(n)`:
    /// baby steps `1..g`, then giant steps `g, 2g, …` — not the naive
    /// per-diagonal `1..n` set.
    ///
    /// # Errors
    ///
    /// [`SwitchError::KeyTooLarge`] if the TFHE key outruns the slot
    /// count, [`SwitchError::SlotCountNotMultiple`] if the slots can't
    /// cycle it evenly.
    pub fn new<R: Rng + ?Sized>(
        ev: &CkksEvaluator,
        ckks_keys: &mut KeySet,
        ckks_sk: &SecretKey,
        tfhe_keys: &TfheKeys,
        rng: &mut R,
    ) -> Result<Self, SwitchError> {
        let ctx = ev.context();
        let slots = ctx.slots();
        let n = tfhe_keys.lwe_sk.len();
        if n > slots {
            return Err(SwitchError::KeyTooLarge { lwe_dim: n, slots });
        }
        // Cyclically repeat the key so every rotation of the slot
        // vector still aligns key bit (j+i) mod n with slot j.
        if !slots.is_multiple_of(n) {
            return Err(SwitchError::SlotCountNotMultiple { slots, lwe_dim: n });
        }
        let key_vals: Vec<f64> = (0..slots).map(|j| tfhe_keys.lwe_sk[j % n] as f64).collect();
        let key_ct = ev.encrypt_real(&key_vals, ckks_keys, rng);
        for step in bsgs_steps(n) {
            ckks_keys.gen_rotation_key(ctx, ckks_sk, step, rng);
        }
        Ok(Self { key_ct, lwe_dim: n })
    }

    /// The BSGS split `(baby steps g, giant steps b)` with `g·b ≥ n`.
    pub fn bsgs_split(&self) -> (usize, usize) {
        bsgs_split(self.lwe_dim)
    }

    /// Generates the full naive per-diagonal rotation-key set
    /// (`1..n`), needed only to run [`LweToCkks::repack_naive`] — the
    /// conformance/benchmark reference. The fast path never needs
    /// these.
    pub fn gen_naive_rotation_keys<R: Rng + ?Sized>(
        &self,
        ev: &CkksEvaluator,
        ckks_keys: &mut KeySet,
        ckks_sk: &SecretKey,
        rng: &mut R,
    ) {
        for step in 1..self.lwe_dim {
            ckks_keys.gen_rotation_key(ev.context(), ckks_sk, step as isize, rng);
        }
    }

    /// Diagonal `s` of the transform matrix `−A/q_t`, cycled over the
    /// slot count. Slot `t` of diagonal `s` is `−a_{t,(t+s) mod n}/q_t`
    /// (zero past the supplied LWEs).
    fn diagonal(
        &self,
        lwes: &[LweCiphertext],
        tfhe_ctx: &TfheContext,
        s: usize,
        slots: usize,
    ) -> Vec<f64> {
        let qt = tfhe_ctx.q() as f64;
        let n = self.lwe_dim;
        (0..slots)
            .map(|t| {
                lwes.get(t)
                    .map(|lwe| {
                        let a = lwe.a[(t + s) % n];
                        -(to_signed(a, tfhe_ctx.q()) as f64) / qt
                    })
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Shape checks shared by both repack paths.
    fn check_inputs(&self, lwes: &[LweCiphertext], slots: usize) -> Result<(), SwitchError> {
        if lwes.len() > slots {
            return Err(SwitchError::TooManyLwes {
                count: lwes.len(),
                slots,
            });
        }
        if let Some(bad) = lwes.iter().find(|lwe| lwe.dim() != self.lwe_dim) {
            return Err(SwitchError::LweDimensionMismatch {
                got: bad.dim(),
                expected: self.lwe_dim,
            });
        }
        Ok(())
    }

    /// Adds the plaintext `b_j/q_t` after the mat-vec and rescale.
    fn add_body(
        &self,
        ev: &CkksEvaluator,
        matvec: &CkksCiphertext,
        lwes: &[LweCiphertext],
        tfhe_ctx: &TfheContext,
        slots: usize,
    ) -> CkksCiphertext {
        let qt = tfhe_ctx.q() as f64;
        let b_vals: Vec<f64> = (0..slots)
            .map(|j| {
                lwes.get(j)
                    .map(|lwe| to_signed(lwe.b, tfhe_ctx.q()) as f64 / qt)
                    .unwrap_or(0.0)
            })
            .collect();
        let b_pt = ev.encode_real_at(&b_vals, matvec.level, matvec.scale);
        ev.add_plain(matvec, &b_pt)
    }

    /// Repacks `lwes` (all under the TFHE small key) into a CKKS
    /// ciphertext whose slot `j` holds `μ_j − κ_j` (phase in torus
    /// units, with integer wrap `κ_j`). Call
    /// [`LweToCkks::mod_reduce`] afterwards to strip the wraps.
    ///
    /// BSGS fast path: the `n` diagonals form one
    /// [`LinearTransform`] of span `n`, applied to the repacking key
    /// (hoisted baby rotations, one giant rotation per inner sum).
    ///
    /// # Errors
    ///
    /// [`SwitchError::TooManyLwes`] /
    /// [`SwitchError::LweDimensionMismatch`] on shape mismatch,
    /// [`SwitchError::EmptyTransform`] if no diagonal is non-zero.
    pub fn repack(
        &self,
        ev: &CkksEvaluator,
        ckks_keys: &KeySet,
        lwes: &[LweCiphertext],
        tfhe_ctx: &TfheContext,
    ) -> Result<CkksCiphertext, SwitchError> {
        let _span =
            ufc_trace::span_full("switch", "repack", batch_tag(lwes.len()), lwes.len() as u64);
        let slots = ev.context().slots();
        self.check_inputs(lwes, slots)?;
        ev.record_public(TraceOp::Repack {
            count: lwes.len() as u32,
            level: self.key_ct.level as u32,
        });
        let n = self.lwe_dim;
        let diags = (0..n)
            .map(|s| {
                let diag = self.diagonal(lwes, tfhe_ctx, s, slots);
                (s, diag.into_iter().map(|d| (d, 0.0)).collect())
            })
            .collect();
        let transform = LinearTransform::from_diagonals(slots, n, diags);
        if transform.diagonals().is_empty() {
            return Err(SwitchError::EmptyTransform);
        }
        let matvec = transform.apply(ev, &self.key_ct, ckks_keys);
        Ok(self.add_body(ev, &matvec, lwes, tfhe_ctx, slots))
    }

    /// The naive n-step diagonal reference path: one ciphertext
    /// rotation and one encode per non-zero diagonal. Needs the full
    /// `1..n` rotation-key set
    /// ([`LweToCkks::gen_naive_rotation_keys`]). Kept for conformance
    /// pinning and the old-vs-new benchmark.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LweToCkks::repack`].
    pub fn repack_naive(
        &self,
        ev: &CkksEvaluator,
        ckks_keys: &KeySet,
        lwes: &[LweCiphertext],
        tfhe_ctx: &TfheContext,
    ) -> Result<CkksCiphertext, SwitchError> {
        let _span = ufc_trace::span_full(
            "switch",
            "repack_naive",
            batch_tag(lwes.len()),
            lwes.len() as u64,
        );
        let slots = ev.context().slots();
        self.check_inputs(lwes, slots)?;
        ev.record_public(TraceOp::Repack {
            count: lwes.len() as u32,
            level: self.key_ct.level as u32,
        });
        let n = self.lwe_dim;
        // Diagonal method over rotation steps 0..n:
        //   out_j = Σ_i (−a_{j,(j+i) mod n}/q_t) · s_{(j+i) mod n}.
        let mut acc: Option<CkksCiphertext> = None;
        for shift in 0..n {
            let diag = self.diagonal(lwes, tfhe_ctx, shift, slots);
            if diag.iter().all(|&d| d == 0.0) {
                continue;
            }
            let rotated = if shift == 0 {
                self.key_ct.clone()
            } else {
                ev.rotate(&self.key_ct, shift as isize, ckks_keys)
            };
            let pt = ev.encode_real(&diag, rotated.level);
            let term = ev.mul_plain(&rotated, &pt);
            acc = Some(match acc {
                Some(a) => ev.add(&a, &term),
                None => term,
            });
        }
        let matvec = ev.rescale(&acc.ok_or(SwitchError::EmptyTransform)?);
        Ok(self.add_body(ev, &matvec, lwes, tfhe_ctx, slots))
    }

    /// The sine-based modular reduction finishing the repack: maps
    /// slot values `t − κ` (integer κ, `|t| ≤ 1/8`) to ≈ `t`. This is
    /// the "bootstrapping" step of the repacking algorithm; it reuses
    /// the CKKS EvalMod machinery.
    pub fn mod_reduce(
        &self,
        ev: &CkksEvaluator,
        ckks_keys: &KeySet,
        ct: &CkksCiphertext,
    ) -> CkksCiphertext {
        let cfg = ufc_ckks::bootstrap::BootstrapConfig::default();
        let normalized = ev.adjust_scale(ct, ev.context().scale(), ct.level - 1);
        eval_poly(ev, &normalized, &cfg.sine_coeffs, ckks_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_ckks::CkksContext;

    /// Builds LWEs whose phases are exactly representable and whose
    /// wrap counts stay small (masks drawn from a reduced range so the
    /// degree-7 sine stays in its accurate domain — production uses a
    /// higher-degree EvalMod).
    fn small_mask_lwe<R: Rng + ?Sized>(
        ctx: &TfheContext,
        keys: &TfheKeys,
        m: u64,
        space: u64,
        rng: &mut R,
    ) -> LweCiphertext {
        let q = ctx.q();
        let range = q / 64; // small masks => |wrap| stays tiny
        let a: Vec<u64> = (0..ctx.lwe_dim())
            .map(|_| rng.gen_range(0..range))
            .collect();
        let dot = a.iter().zip(&keys.lwe_sk).fold(0u64, |acc, (&ai, &si)| {
            ufc_math::modops::add_mod(acc, ufc_math::modops::mul_mod(ai, si, q), q)
        });
        let b = ufc_math::modops::add_mod(dot, ctx.encode(m, space), q);
        LweCiphertext { a, b, q }
    }

    fn setup() -> (
        CkksEvaluator,
        SecretKey,
        KeySet,
        TfheContext,
        TfheKeys,
        LweToCkks,
        StdRng,
    ) {
        let ckks_ctx = CkksContext::new(32, 9, 3, 3, 36, 34);
        let mut rng = StdRng::seed_from_u64(91);
        let sk = SecretKey::generate(&ckks_ctx, &mut rng);
        let mut keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
        let tfhe_ctx = TfheContext::new(16, 64, 7, 3, 6, 4);
        let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
        let ev = CkksEvaluator::new(ckks_ctx);
        let bridge = LweToCkks::new(&ev, &mut keys, &sk, &tfhe_keys, &mut rng).unwrap();
        (ev, sk, keys, tfhe_ctx, tfhe_keys, bridge, rng)
    }

    #[test]
    fn repack_recovers_phases_up_to_wraps() {
        let (ev, sk, keys, tfhe_ctx, tfhe_keys, bridge, mut rng) = setup();
        let messages = [1u64, 0, 1, 1, 0, 1, 0, 0];
        let lwes: Vec<LweCiphertext> = messages
            .iter()
            .map(|&m| small_mask_lwe(&tfhe_ctx, &tfhe_keys, m, 16, &mut rng))
            .collect();
        let packed = bridge.repack(&ev, &keys, &lwes, &tfhe_ctx).unwrap();
        let dec = ev.decrypt_real(&packed, &sk);
        for (j, &m) in messages.iter().enumerate() {
            // With reduced-range masks the wrap count is zero, so the
            // packed slot is the signed phase directly.
            let expect = if m > 8 {
                m as f64 / 16.0 - 1.0
            } else {
                m as f64 / 16.0
            };
            assert!(
                (dec[j] - expect).abs() < 0.02,
                "slot {j}: got {} want {expect}",
                dec[j]
            );
        }
    }

    #[test]
    fn repack_with_mod_reduce_recovers_values() {
        let (ev, sk, keys, tfhe_ctx, tfhe_keys, bridge, mut rng) = setup();
        // Messages near zero phase so |t| stays in the sine's domain.
        let messages = [0u64, 1, 15, 0, 1, 15, 0, 1];
        let lwes: Vec<LweCiphertext> = messages
            .iter()
            .map(|&m| small_mask_lwe(&tfhe_ctx, &tfhe_keys, m, 16, &mut rng))
            .collect();
        let packed = bridge.repack(&ev, &keys, &lwes, &tfhe_ctx).unwrap();
        let reduced = bridge.mod_reduce(&ev, &keys, &packed);
        let dec = ev.decrypt_real(&reduced, &sk);
        for (j, &m) in messages.iter().enumerate() {
            // signed phase: 15/16 == -1/16.
            let expect = if m > 8 {
                m as f64 / 16.0 - 1.0
            } else {
                m as f64 / 16.0
            };
            assert!(
                (dec[j] - expect).abs() < 0.02,
                "slot {j}: got {} want {expect}",
                dec[j]
            );
        }
    }

    #[test]
    fn bsgs_matches_naive_within_tolerance() {
        let (ev, sk, mut keys, tfhe_ctx, tfhe_keys, bridge, mut rng) = setup();
        bridge.gen_naive_rotation_keys(&ev, &mut keys, &sk, &mut rng);
        let messages = [3u64, 0, 7, 12, 1, 15, 9, 4];
        let lwes: Vec<LweCiphertext> = messages
            .iter()
            .map(|&m| small_mask_lwe(&tfhe_ctx, &tfhe_keys, m, 16, &mut rng))
            .collect();
        let fast = bridge.repack(&ev, &keys, &lwes, &tfhe_ctx).unwrap();
        let slow = bridge.repack_naive(&ev, &keys, &lwes, &tfhe_ctx).unwrap();
        let df = ev.decrypt_real(&fast, &sk);
        let ds = ev.decrypt_real(&slow, &sk);
        for (j, (f, s)) in df.iter().zip(&ds).enumerate() {
            assert!((f - s).abs() < 0.02, "slot {j}: bsgs {f} naive {s}");
        }
    }

    #[test]
    fn bsgs_needs_only_sqrt_rotation_keys() {
        let ckks_ctx = CkksContext::new(32, 9, 3, 3, 36, 34);
        let mut rng = StdRng::seed_from_u64(92);
        let sk = SecretKey::generate(&ckks_ctx, &mut rng);
        let mut keys = KeySet::generate(&ckks_ctx, &sk, &mut rng);
        let tfhe_ctx = TfheContext::new(16, 64, 7, 3, 6, 4);
        let tfhe_keys = TfheKeys::generate(&tfhe_ctx, &mut rng);
        let ev = CkksEvaluator::new(ckks_ctx);
        let before = keys.rotation_key_count();
        let bridge = LweToCkks::new(&ev, &mut keys, &sk, &tfhe_keys, &mut rng).unwrap();
        let added = keys.rotation_key_count() - before;
        let n = tfhe_ctx.lwe_dim();
        let (g, b) = bridge.bsgs_split();
        assert!(g * b >= n, "BSGS split must cover all diagonals");
        let sqrt_bound = 2 * (n as f64).sqrt().ceil() as usize;
        assert!(
            added <= sqrt_bound,
            "BSGS generated {added} rotation keys, bound {sqrt_bound}"
        );
        assert!(
            added < n - 1,
            "BSGS must need fewer keys than the naive {} for n={n}",
            n - 1
        );
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let (ev, _sk, keys, tfhe_ctx, tfhe_keys, bridge, mut rng) = setup();
        let slots = ev.context().slots();
        let too_many: Vec<LweCiphertext> = (0..slots + 1)
            .map(|_| small_mask_lwe(&tfhe_ctx, &tfhe_keys, 0, 16, &mut rng))
            .collect();
        assert_eq!(
            bridge.repack(&ev, &keys, &too_many, &tfhe_ctx).unwrap_err(),
            SwitchError::TooManyLwes {
                count: slots + 1,
                slots
            }
        );
        let wrong_dim = LweCiphertext::trivial(0, 8, tfhe_ctx.q());
        assert_eq!(
            bridge
                .repack(&ev, &keys, &[wrong_dim], &tfhe_ctx)
                .unwrap_err(),
            SwitchError::LweDimensionMismatch {
                got: 8,
                expected: 16
            }
        );
        let trivial = LweCiphertext::trivial(0, 16, tfhe_ctx.q());
        assert_eq!(
            bridge
                .repack(&ev, &keys, &[trivial], &tfhe_ctx)
                .unwrap_err(),
            SwitchError::EmptyTransform
        );
    }

    #[test]
    fn repack_records_trace() {
        let (ev, _sk, keys, tfhe_ctx, tfhe_keys, bridge, mut rng) = setup();
        let lwes = vec![small_mask_lwe(&tfhe_ctx, &tfhe_keys, 1, 16, &mut rng)];
        let _ = ev.take_trace();
        let _ = bridge.repack(&ev, &keys, &lwes, &tfhe_ctx).unwrap();
        let tr = ev.take_trace();
        assert!(tr
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::Repack { count: 1, .. })));
    }
}
