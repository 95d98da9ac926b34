//! The CKKS evaluator: encrypt/decrypt, homomorphic arithmetic, hybrid
//! key-switching, rotations — with a built-in ciphertext-granularity
//! tracer (the paper's tracing tool, §VI-B).
//!
//! The hot path (key-switching, rescale, rotation) is allocation-lean:
//! every step works in place on the flat [`RnsPlane`] buffers, and the
//! only copies are explicit `clone` / [`RnsPlane::prefix`] calls where
//! a borrowed input genuinely has to be materialised.
//!
//! It also transforms only the limbs that need coefficient form:
//! ModUp inverse-transforms its input once and forward-transforms only
//! the limbs the base conversion writes, ModDown inverse-transforms
//! only the `P` limbs, and rescale only the dropped limb. Everything
//! else stays in evaluation form, and the outputs are bit-identical to
//! transforming every limb.

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::{Complex, Encoder};
use crate::keys::{KeySet, SecretKey, SwitchingKey, NOISE_SIGMA};
use rand::Rng;
use std::sync::{Mutex, PoisonError};
use ufc_isa::trace::{Trace, TraceOp};
use ufc_math::automorph;
use ufc_math::modops::shoup_precompute;
use ufc_math::par::{par_limbs, par_limbs_in, with_scratch};
use ufc_math::plane::RnsPlane;
use ufc_math::poly::Form;
use ufc_math::sample::{gaussian_vec, ternary_vec};
use ufc_math::simd;

/// The cached, evaluation-form extended-basis digits of one
/// ciphertext's `c1` — the reusable front half of a key switch.
///
/// Built by [`Evaluator::hoist`]; consumed (by shared reference, any
/// number of times) by [`Evaluator::rotate_hoisted`]. Rotating `r`
/// ways from the same hoisting costs one decompose+ModUp+NTT total
/// instead of `r`.
#[derive(Debug)]
pub struct HoistedDigits {
    digits: Vec<RnsPlane>,
    level: usize,
}

impl HoistedDigits {
    /// The level the digits were built at.
    pub fn level(&self) -> usize {
        self.level
    }
}

/// Homomorphic evaluator bound to a context, key set and encoder.
///
/// Every public operation records a [`TraceOp`]; call
/// [`Evaluator::take_trace`] to retrieve the accumulated trace.
#[derive(Debug)]
pub struct Evaluator {
    ctx: CkksContext,
    encoder: Encoder,
    trace: Mutex<Trace>,
}

impl Evaluator {
    /// Creates an evaluator (and its tracer) for the given context.
    pub fn new(ctx: CkksContext) -> Self {
        let encoder = Encoder::new(ctx.n(), ctx.scale());
        Self {
            ctx,
            encoder,
            trace: Mutex::new(Trace::new("ckks")),
        }
    }

    /// The context.
    pub fn context(&self) -> &CkksContext {
        &self.ctx
    }

    /// The slot encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Takes the recorded trace, resetting the tracer.
    pub fn take_trace(&self) -> Trace {
        let mut trace = self.trace.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *trace, Trace::new("ckks"))
    }

    fn record(&self, op: TraceOp) {
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(op);
    }

    /// Records an externally-generated trace op (used by the
    /// bootstrapping pipeline for composite events like ModRaise).
    pub fn record_public(&self, op: TraceOp) {
        self.record(op);
    }

    // ---------------------------------------------------------- encrypt

    /// Encodes complex slot values into a plaintext RNS polynomial at
    /// `level` (evaluation form), at an explicit scale: the one encode
    /// entry point of the evaluator.
    pub fn encode_at(&self, slots: &[Complex], level: usize, scale: f64) -> RnsPlane {
        let _span = ufc_trace::span("ckks", "encode");
        let coeffs = self.encoder.encode_at(slots, scale);
        self.ctx.eval_from_signed(&coeffs, level + 1)
    }

    /// Encodes real slot values at an explicit scale (used for scale
    /// management in deep circuits).
    pub fn encode_real_at(&self, values: &[f64], level: usize, scale: f64) -> RnsPlane {
        let slots: Vec<Complex> = values.iter().map(|&v| (v, 0.0)).collect();
        self.encode_at(&slots, level, scale)
    }

    /// Encodes real slot values into a plaintext RNS polynomial at
    /// `level` (evaluation form), at the context scale.
    pub fn encode_real(&self, values: &[f64], level: usize) -> RnsPlane {
        self.encode_real_at(values, level, self.ctx.scale())
    }

    /// Encrypts real slot values under the public key at top level.
    pub fn encrypt_real<R: Rng + ?Sized>(
        &self,
        values: &[f64],
        keys: &KeySet,
        rng: &mut R,
    ) -> Ciphertext {
        let level = self.ctx.max_level();
        let m = self.encode_real(values, level);
        self.encrypt_plaintext(&m, keys, level, rng)
    }

    /// Encrypts an already-encoded plaintext.
    pub fn encrypt_plaintext<R: Rng + ?Sized>(
        &self,
        m: &RnsPlane,
        keys: &KeySet,
        level: usize,
        rng: &mut R,
    ) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "encrypt");
        let n = self.ctx.n();
        let v = self.ctx.eval_from_signed(&ternary_vec(rng, n), level + 1);
        let e0 = self.noise(level, rng);
        let e1 = self.noise(level, rng);
        // Slice the public key to the active limbs, then build the
        // ciphertext components in place.
        let mut c0 = keys.public.b.prefix(level + 1);
        c0.hadamard_assign(&v);
        c0.add_assign(&e0);
        c0.add_assign(m);
        let mut c1 = keys.public.a.prefix(level + 1);
        c1.hadamard_assign(&v);
        c1.add_assign(&e1);
        Ciphertext::new(c0, c1, level, self.ctx.scale())
    }

    fn noise<R: Rng + ?Sized>(&self, level: usize, rng: &mut R) -> RnsPlane {
        let signed = gaussian_vec(rng, self.ctx.n(), NOISE_SIGMA);
        self.ctx.eval_from_signed(&signed, level + 1)
    }

    // ---------------------------------------------------------- decrypt

    /// Decrypts to centered coefficients (exact CRT over up to three
    /// limbs — ample for test-scale messages). Only those limbs are
    /// computed.
    pub fn decrypt_coeffs(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<i64> {
        let _span = ufc_trace::span("ckks", "decrypt");
        let use_limbs = ct.limb_count().min(3);
        let s = sk.rns_eval(&self.ctx, use_limbs);
        let mut m = ct.c1.prefix(use_limbs);
        m.hadamard_assign(&s);
        m.add_assign(&ct.c0.prefix(use_limbs));
        self.ctx.to_coeff(&mut m);
        let basis = ufc_math::rns::RnsBasis::new(self.ctx.q_moduli()[..use_limbs].to_vec());
        let mut residues = vec![0u64; use_limbs];
        (0..self.ctx.n())
            .map(|i| {
                for (l, r) in residues.iter_mut().enumerate() {
                    *r = m.limb(l)[i];
                }
                basis.reconstruct_i128(&residues) as i64
            })
            .collect()
    }

    /// Decrypts and decodes to real slot values.
    pub fn decrypt_real(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<f64> {
        let coeffs = self.decrypt_coeffs(ct, sk);
        self.encoder.decode_real(&coeffs, ct.scale)
    }

    /// Decrypts and decodes to complex slot values.
    pub fn decrypt_complex(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<Complex> {
        let coeffs = self.decrypt_coeffs(ct, sk);
        self.encoder.decode(&coeffs, ct.scale)
    }

    // ------------------------------------------------------- arithmetic

    /// Homomorphic addition (levels are aligned by dropping limbs).
    ///
    /// # Panics
    ///
    /// Panics if scales differ by more than 0.5 %.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "add");
        let level = a.level.min(b.level);
        let (mut a, b) = (self.drop_to_level(a, level), self.drop_to_level(b, level));
        assert!(
            (a.scale / b.scale - 1.0).abs() < 5e-3,
            "scale mismatch: {} vs {}",
            a.scale,
            b.scale
        );
        self.record(TraceOp::CkksAdd {
            level: level as u32,
        });
        a.c0.add_assign(&b.c0);
        a.c1.add_assign(&b.c1);
        Ciphertext::new(a.c0, a.c1, level, a.scale)
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "sub");
        let level = a.level.min(b.level);
        let (mut a, b) = (self.drop_to_level(a, level), self.drop_to_level(b, level));
        self.record(TraceOp::CkksAdd {
            level: level as u32,
        });
        a.c0.sub_assign(&b.c0);
        a.c1.sub_assign(&b.c1);
        Ciphertext::new(a.c0, a.c1, level, a.scale)
    }

    /// Ciphertext × plaintext multiplication (plaintext in evaluation
    /// form at the same level, encoded at the context scale).
    pub fn mul_plain(&self, a: &Ciphertext, pt: &RnsPlane) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "mul_plain");
        assert_eq!(pt.limb_count(), a.limb_count(), "plaintext level mismatch");
        self.record(TraceOp::CkksMulPlain {
            level: a.level as u32,
        });
        self.mul_plain_untraced(a, pt, self.ctx.scale())
    }

    /// Ciphertext × plaintext product with no trace record, for
    /// composite ops that record their own trace; `pt_scale` is the
    /// plaintext's encoding scale.
    pub(crate) fn mul_plain_untraced(
        &self,
        a: &Ciphertext,
        pt: &RnsPlane,
        pt_scale: f64,
    ) -> Ciphertext {
        let mut c0 = a.c0.clone();
        c0.hadamard_assign(pt);
        let mut c1 = a.c1.clone();
        c1.hadamard_assign(pt);
        Ciphertext::new(c0, c1, a.level, a.scale * pt_scale)
    }

    /// Adds an encoded plaintext to the ciphertext (scales must match).
    pub fn add_plain(&self, a: &Ciphertext, pt: &RnsPlane) -> Ciphertext {
        assert_eq!(pt.limb_count(), a.limb_count(), "plaintext level mismatch");
        self.record(TraceOp::CkksAdd {
            level: a.level as u32,
        });
        let mut c0 = a.c0.clone();
        c0.add_assign(pt);
        Ciphertext::new(c0, a.c1.clone(), a.level, a.scale)
    }

    /// Homomorphic ciphertext multiplication with relinearization.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext, keys: &KeySet) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "mul");
        let level = a.level.min(b.level);
        let (a, b) = (self.drop_to_level(a, level), self.drop_to_level(b, level));
        self.record(TraceOp::CkksMulCt {
            level: level as u32,
        });
        let mut d0 = a.c0.clone();
        d0.hadamard_assign(&b.c0);
        let mut d1 = a.c0.clone();
        d1.hadamard_assign(&b.c1);
        d1.mac_assign(&a.c1, &b.c0);
        let mut d2 = a.c1.clone();
        d2.hadamard_assign(&b.c1);
        // Relinearize d2 with the s² key.
        let (k0, k1) = self.key_switch(&d2, &keys.relin, level);
        d0.add_assign(&k0);
        d1.add_assign(&k1);
        Ciphertext::new(d0, d1, level, a.scale * b.scale)
    }

    /// Rescale: divide by the last limb's modulus, dropping one level.
    ///
    /// Runs in evaluation form ([`RnsPlane::rescale_ntt_assign`]): per
    /// component one inverse NTT of the dropped limb and one forward
    /// NTT per remaining limb, `2L + 2` transforms at level `L`.
    pub fn rescale(&self, a: &Ciphertext) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "rescale");
        assert!(a.level > 0, "no levels left to rescale");
        self.record(TraceOp::CkksRescale {
            level: a.level as u32,
        });
        let q_last = self.ctx.q_moduli()[a.level];
        let rescaled = |c: &RnsPlane| {
            let mut c = c.clone();
            c.rescale_ntt_assign(&self.ctx.ntt_tables(c.moduli()));
            c
        };
        let (c0, c1) = (rescaled(&a.c0), rescaled(&a.c1));
        Ciphertext::new(c0, c1, a.level - 1, a.scale / q_last as f64)
    }

    /// Homomorphic slot rotation by `step` (left-rotation of the
    /// packed vector). The rotation key must already exist.
    ///
    /// # Panics
    ///
    /// Panics if the rotation key was not generated.
    pub fn rotate(&self, a: &Ciphertext, step: isize, keys: &KeySet) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "rotate");
        if step == 0 {
            return self.drop_to_level(a, a.level);
        }
        let k = automorph::rotation_exponent(step, self.ctx.n());
        let key = keys
            .rotation_key(k)
            .unwrap_or_else(|| panic!("missing rotation key for step {step}"));
        self.record(TraceOp::CkksRotate {
            level: a.level as u32,
            step: step as i32,
        });
        self.apply_galois(a, k, key)
    }

    /// Homomorphic complex conjugation.
    pub fn conjugate(&self, a: &Ciphertext, keys: &KeySet) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "conjugate");
        let k = 2 * self.ctx.n() - 1;
        self.record(TraceOp::CkksConjugate {
            level: a.level as u32,
        });
        self.apply_galois(a, k, &keys.conj)
    }

    fn apply_galois(&self, a: &Ciphertext, k: usize, key: &SwitchingKey) -> Ciphertext {
        let mut c0r = a.c0.automorph(k);
        let c1r = a.c1.automorph(k);
        let (k0, k1) = self.key_switch(&c1r, key, a.level);
        c0r.add_assign(&k0);
        Ciphertext::new(c0r, k1, a.level, a.scale)
    }

    /// Rescales `a` to exactly (`target_level`, `target_scale`) by one
    /// constant multiplication and rescale — the standard scale
    /// alignment trick for adding ciphertexts with different rescale
    /// histories.
    ///
    /// # Panics
    ///
    /// Panics if `a.level <= target_level` is violated (at least one
    /// level is consumed).
    pub fn adjust_scale(
        &self,
        a: &Ciphertext,
        target_scale: f64,
        target_level: usize,
    ) -> Ciphertext {
        assert!(a.level > target_level, "adjust_scale consumes one level");
        let a = self.drop_to_level(a, target_level + 1);
        let q_next = self.ctx.q_moduli()[target_level + 1] as f64;
        let factor_scale = target_scale * q_next / a.scale;
        let ones = vec![1.0; self.ctx.slots()];
        let pt = self.encode_real_at(&ones, a.level, factor_scale);
        let scaled = self.mul_plain_untraced(&a, &pt, factor_scale);
        self.record(TraceOp::CkksMulPlain {
            level: a.level as u32,
        });
        let out = self.rescale(&scaled);
        // Snap the bookkeeping to the exact target (the numeric drift
        // is far below encoding noise).
        Ciphertext::new(out.c0, out.c1, out.level, target_scale)
    }

    /// Drops limbs to reach `level` (modulus reduction, no scaling).
    pub fn drop_to_level(&self, a: &Ciphertext, level: usize) -> Ciphertext {
        assert!(level <= a.level, "cannot raise level by dropping limbs");
        Ciphertext::new(
            a.c0.prefix(level + 1),
            a.c1.prefix(level + 1),
            level,
            a.scale,
        )
    }

    // ----------------------------------------------------- key switching

    /// Hybrid key switching of a single polynomial `d` (evaluation
    /// form, `level+1` limbs): returns `(k0, k1)` over the active `Q`
    /// limbs with `k0 + k1·s ≈ d·s_from`.
    ///
    /// This is the paper's dominant CKKS kernel: digit decomposition,
    /// ModUp base conversions, the big MAC accumulation against the
    /// key, and the ModDown division by `P` (§II-B3). Each extended
    /// digit is assembled directly into a flat limb-major buffer and
    /// MAC-accumulated in place — no per-digit limb vectors.
    ///
    /// With `A = level + 1` active limbs, `k` P limbs and `l_j` limbs in
    /// active digit `j`, it runs `A + 2k` inverse NTTs (the input, then
    /// each output's P limbs) and `Σ_j (A + k − l_j) + 2A` forward NTTs
    /// (each digit's converted limbs, then each output's correction):
    /// 80 limb transforms at the C2 top level, where transforming every
    /// limb takes 116.
    pub fn key_switch(
        &self,
        d: &RnsPlane,
        key: &SwitchingKey,
        level: usize,
    ) -> (RnsPlane, RnsPlane) {
        let _span = ufc_trace::span_n("ckks", "key_switch", level as u64);
        let digits = self.decompose_mod_up(d, level);
        self.mac_digits(&digits, None, key, level)
    }

    /// Digit-decomposes `d` and ModUps every digit to the extended
    /// basis (active Q limbs ++ all P limbs, evaluation form) — the
    /// expensive front half of [`Evaluator::key_switch`], shared with
    /// [`Evaluator::hoist`].
    ///
    /// Transforms: `d` goes to coefficient form once (`level + 1`
    /// inverse NTTs), so that every digit can be base-converted. A
    /// digit's own limbs are the evaluation-form input scaled by
    /// `Qhat_j^{-1}`, with no transform; only the `ext − l_j` limbs the
    /// BConv writes are forward-transformed.
    fn decompose_mod_up(&self, d: &RnsPlane, level: usize) -> Vec<RnsPlane> {
        let ctx = &self.ctx;
        let active = level + 1;
        let n = ctx.n();
        let mut d_coeff = d.clone();
        ctx.to_coeff(&mut d_coeff);
        let ext_moduli = ctx.ext_moduli(level);
        let tables = ctx.ntt_tables(&ext_moduli);
        ctx.digits()[..ctx.active_digits(level)]
            .iter()
            .map(|dt| {
                let (lo, hi) = dt.limb_range;
                let own = lo..hi.min(active);
                // d~_j = [d · Qhat_j^{-1}]_{Q_j}: the scale folds into
                // the BConv's y-pass on the coefficient rows. One
                // fan-out then fills the extended basis: the own limbs
                // from the evaluation-form input, every other limb by
                // converting and transforming it in place. The
                // converter's targets are the limbs outside `own`, in
                // order.
                let qhat_inv = &dt.qhat_inv[level];
                let conv = dt.mod_up[level].as_ref().expect("digit active");
                let rows: Vec<&[u64]> = own.clone().map(|i| d_coeff.limb(i)).collect();
                let y = conv.scale_rows(&rows, Some(qhat_inv));
                let mut flat = vec![0u64; ext_moduli.len() * n];
                par_limbs(n, &mut flat, |i, chunk| {
                    if own.contains(&i) {
                        let q = ext_moduli[i];
                        let s = qhat_inv[i - lo] % q;
                        chunk.copy_from_slice(d.limb(i));
                        simd::scale_shoup_slice(chunk, s, shoup_precompute(s, q), q);
                    } else {
                        y.write_limb(if i < lo { i } else { i - own.len() }, chunk);
                        tables[i].forward(chunk);
                    }
                });
                RnsPlane::from_flat_unchecked(flat, &ext_moduli, Form::Eval)
            })
            .collect()
    }

    /// MAC-accumulates extended-basis digits against a switching key
    /// and ModDowns — the back half of [`Evaluator::key_switch`].
    ///
    /// One fan-out over both outputs: chunk `c` is limb `c mod ext` of
    /// output `c / ext` and runs every digit's MAC into itself, so
    /// each accumulator limb is written in one pass. With `galois`
    /// (an [`automorph::eval_index_map`]), each digit limb is read
    /// through the map into a per-worker buffer first: the MAC of the
    /// automorphed digits, without permuted copies of them. The two
    /// accumulators are separate buffers, so the first is freed before
    /// the second ModDown runs.
    fn mac_digits(
        &self,
        digits: &[RnsPlane],
        galois: Option<&[usize]>,
        key: &SwitchingKey,
        level: usize,
    ) -> (RnsPlane, RnsPlane) {
        let ctx = &self.ctx;
        let n = ctx.n();
        let digit_keys = key.at_level(level);
        let ext_moduli = ctx.ext_moduli(level);
        let ext = ext_moduli.len();
        let (mut acc0, mut acc1) = (vec![0u64; ext * n], vec![0u64; ext * n]);
        par_limbs_in(n, &mut [&mut acc0, &mut acc1], |c, chunk| {
            let (out, i) = (c / ext, c % ext);
            let q = ext_moduli[i];
            for (d, (b_j, a_j)) in digits.iter().zip(digit_keys) {
                let key_limb = if out == 0 { b_j.limb(i) } else { a_j.limb(i) };
                match galois {
                    None => simd::mac_mod_slice(chunk, d.limb(i), key_limb, q),
                    Some(map) => with_scratch(n, |buf| {
                        let src = d.limb(i);
                        for (x, &j) in buf.iter_mut().zip(map) {
                            *x = src[j];
                        }
                        simd::mac_mod_slice(chunk, buf, key_limb, q);
                    }),
                }
            }
        });
        let k0 = self.mod_down(&acc0, level);
        drop(acc0);
        (k0, self.mod_down(&acc1, level))
    }

    /// Precomputes the hoisted decomposition of `ct.c1` for a series
    /// of rotations of the same ciphertext: digit decomposition,
    /// ModUp, and the forward NTTs happen **once** here; each
    /// subsequent [`Evaluator::rotate_hoisted`] only permutes the
    /// cached evaluation-form digits and runs the MAC + ModDown.
    pub fn hoist(&self, ct: &Ciphertext) -> HoistedDigits {
        let _span = ufc_trace::span_n("ckks", "hoist", ct.level as u64);
        HoistedDigits {
            digits: self.decompose_mod_up(&ct.c1, ct.level),
            level: ct.level,
        }
    }

    /// Rotation via a precomputed [`HoistedDigits`]. Not bit-identical
    /// to [`Evaluator::rotate`] — fast base conversion and the
    /// automorphism commute only up to a multiple of the digit modulus,
    /// absorbed as key-switching noise — but equal within normal
    /// rotation noise, which is what the repack precision pins measure.
    ///
    /// # Panics
    ///
    /// Panics if the rotation key is missing or `hoisted` was built at
    /// a different level than `a`.
    pub fn rotate_hoisted(
        &self,
        a: &Ciphertext,
        hoisted: &HoistedDigits,
        step: isize,
        keys: &KeySet,
    ) -> Ciphertext {
        let _span = ufc_trace::span("ckks", "rotate_hoisted");
        assert_eq!(hoisted.level, a.level, "hoisted digits level mismatch");
        if step == 0 {
            return self.drop_to_level(a, a.level);
        }
        let k = automorph::rotation_exponent(step, self.ctx.n());
        let key = keys
            .rotation_key(k)
            .unwrap_or_else(|| panic!("missing rotation key for step {step}"));
        self.record(TraceOp::CkksRotate {
            level: a.level as u32,
            step: step as i32,
        });
        let galois = automorph::eval_index_map(self.ctx.n(), k);
        let (k0, k1) = self.mac_digits(&hoisted.digits, Some(&galois), key, a.level);
        let mut c0r = a.c0.automorph(k);
        c0r.add_assign(&k0);
        Ciphertext::new(c0r, k1, a.level, a.scale)
    }

    /// ModDown: divides an (active Q ++ P)-limb polynomial by `P` with
    /// rounding and returns active-Q limbs (evaluation form). `x` is
    /// the input's flat limb-major buffer, evaluation form.
    ///
    /// Transforms: only the `k` P limbs go to coefficient form for the
    /// BConv P → Q; the correction comes back with `level + 1` forward
    /// NTTs, and `(x − corr)·P^{-1}` is applied in evaluation form.
    fn mod_down(&self, x: &[u64], level: usize) -> RnsPlane {
        let ctx = &self.ctx;
        let n = ctx.n();
        let active = level + 1;
        assert_eq!(x.len(), (active + ctx.p_moduli().len()) * n, "limb layout");
        let mut p_part =
            RnsPlane::from_flat_unchecked(x[active * n..].to_vec(), ctx.p_moduli(), Form::Eval);
        ctx.to_coeff(&mut p_part);
        let rows: Vec<&[u64]> = (0..p_part.limb_count()).map(|i| p_part.limb(i)).collect();
        let y = ctx.p_to_q_converter(level).scale_rows(&rows, None);
        let q_moduli = &ctx.q_moduli()[..active];
        let tables = ctx.ntt_tables(q_moduli);
        // One fan-out, one chunk per Q limb: convert, transform, then
        // (corr − x)·(−P^{-1}) = (x − corr)·P^{-1}, canonical either way.
        let mut out = vec![0u64; active * n];
        par_limbs(n, &mut out, |i, chunk| {
            let q = q_moduli[i];
            y.write_limb(i, chunk);
            tables[i].forward(chunk);
            simd::sub_mod_slice(chunk, &x[i * n..(i + 1) * n], q);
            let s = q - ctx.p_inv_mod_q(i);
            simd::scale_shoup_slice(chunk, s, shoup_precompute(s, q), q);
        });
        RnsPlane::from_flat_unchecked(out, q_moduli, Form::Eval)
    }

    /// Decrypts `ct` and measures the achieved precision against the
    /// known plaintext `reference`: `-log2(max slot error)`, in bits.
    ///
    /// When the runtime recorder is live the result is also emitted
    /// as the `ckks/measured_precision_bits` gauge — the empirical
    /// side of the noise "headroom drift" metric (the static side is
    /// `ufc-verify`'s `NoiseSchedule` lower bound).
    pub fn measured_precision_bits(
        &self,
        ct: &Ciphertext,
        sk: &SecretKey,
        reference: &[f64],
    ) -> f64 {
        let got = self.decrypt_real(ct, sk);
        let max_err = got
            .iter()
            .zip(reference)
            .map(|(g, r)| (g - r).abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let bits = -max_err.log2();
        ufc_trace::gauge("ckks/measured_precision_bits", bits);
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(
        n: usize,
        q_limbs: usize,
        p_limbs: usize,
        dnum: usize,
        seed: u64,
    ) -> (Evaluator, SecretKey, KeySet, StdRng) {
        let ctx = CkksContext::new(n, q_limbs, p_limbs, dnum, 36, 34);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keys = KeySet::generate(&ctx, &sk, &mut rng);
        (Evaluator::new(ctx), sk, keys, rng)
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ev, sk, keys, mut rng) = setup(64, 3, 2, 2, 11);
        let vals: Vec<f64> = (0..32).map(|i| (i as f64) * 0.25 - 4.0).collect();
        let ct = ev.encrypt_real(&vals, &keys, &mut rng);
        let dec = ev.decrypt_real(&ct, &sk);
        assert!(max_err(&vals, &dec) < 1e-3, "err {}", max_err(&vals, &dec));
    }

    #[test]
    fn homomorphic_addition() {
        let (ev, sk, keys, mut rng) = setup(64, 3, 2, 2, 12);
        let a: Vec<f64> = (0..32).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..32).map(|i| 3.0 - i as f64 * 0.05).collect();
        let ca = ev.encrypt_real(&a, &keys, &mut rng);
        let cb = ev.encrypt_real(&b, &keys, &mut rng);
        let sum = ev.add(&ca, &cb);
        let dec = ev.decrypt_real(&sum, &sk);
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert!(max_err(&dec, &expect) < 1e-3);
    }

    #[test]
    fn plaintext_multiplication_and_rescale() {
        let (ev, sk, keys, mut rng) = setup(64, 3, 2, 2, 13);
        let a: Vec<f64> = (0..32).map(|i| i as f64 * 0.1 - 1.0).collect();
        let b: Vec<f64> = (0..32).map(|i| 0.5 + i as f64 * 0.02).collect();
        let ca = ev.encrypt_real(&a, &keys, &mut rng);
        let pb = ev.encode_real(&b, ca.level);
        let prod = ev.rescale(&ev.mul_plain(&ca, &pb));
        let dec = ev.decrypt_real(&prod, &sk);
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        assert!(
            max_err(&dec, &expect) < 1e-2,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn ciphertext_multiplication_with_relinearization() {
        let (ev, sk, keys, mut rng) = setup(64, 3, 2, 2, 14);
        let a: Vec<f64> = (0..32).map(|i| (i as f64 - 16.0) * 0.05).collect();
        let b: Vec<f64> = (0..32).map(|i| 1.0 - i as f64 * 0.03).collect();
        let ca = ev.encrypt_real(&a, &keys, &mut rng);
        let cb = ev.encrypt_real(&b, &keys, &mut rng);
        let prod = ev.rescale(&ev.mul(&ca, &cb, &keys));
        let dec = ev.decrypt_real(&prod, &sk);
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        assert!(
            max_err(&dec, &expect) < 1e-2,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn multiplication_depth_two() {
        let (ev, sk, keys, mut rng) = setup(64, 4, 2, 2, 15);
        let a: Vec<f64> = (0..32).map(|i| 0.9 - i as f64 * 0.01).collect();
        let ca = ev.encrypt_real(&a, &keys, &mut rng);
        let sq = ev.rescale(&ev.mul(&ca, &ca, &keys));
        let quad = ev.rescale(&ev.mul(&sq, &sq, &keys));
        let dec = ev.decrypt_real(&quad, &sk);
        let expect: Vec<f64> = a.iter().map(|x| x.powi(4)).collect();
        assert!(
            max_err(&dec, &expect) < 5e-2,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn rotation_rotates_slots() {
        let (ev, sk, mut keys, mut rng) = setup(64, 3, 2, 2, 16);
        let vals: Vec<f64> = (0..32).map(|i| i as f64).collect();
        keys.gen_rotation_key(ev.context(), &sk, 1, &mut rng);
        keys.gen_rotation_key(ev.context(), &sk, 5, &mut rng);
        let ct = ev.encrypt_real(&vals, &keys, &mut rng);
        for step in [1isize, 5] {
            let rot = ev.rotate(&ct, step, &keys);
            let dec = ev.decrypt_real(&rot, &sk);
            let expect: Vec<f64> = (0..32).map(|i| vals[(i + step as usize) % 32]).collect();
            assert!(
                max_err(&dec, &expect) < 1e-2,
                "step {step}: err {}",
                max_err(&dec, &expect)
            );
        }
    }

    #[test]
    fn hoisted_rotation_matches_plain_rotation() {
        let (ev, sk, mut keys, mut rng) = setup(64, 3, 2, 2, 16);
        let vals: Vec<f64> = (0..32).map(|i| i as f64 * 0.125 - 2.0).collect();
        for step in [1usize, 3, 5] {
            keys.gen_rotation_key(ev.context(), &sk, step as isize, &mut rng);
        }
        let ct = ev.encrypt_real(&vals, &keys, &mut rng);
        let hoisted = ev.hoist(&ct);
        for step in [0isize, 1, 3, 5] {
            let fast = ev.rotate_hoisted(&ct, &hoisted, step, &keys);
            let slow = ev.rotate(&ct, step, &keys);
            let df = ev.decrypt_real(&fast, &sk);
            let ds = ev.decrypt_real(&slow, &sk);
            assert!(
                max_err(&df, &ds) < 1e-2,
                "step {step}: err {}",
                max_err(&df, &ds)
            );
        }
    }

    #[test]
    fn conjugation_conjugates() {
        let (ev, sk, keys, mut rng) = setup(64, 3, 2, 2, 17);
        let slots: Vec<Complex> = (0..32)
            .map(|i| (i as f64 * 0.1, 1.0 - i as f64 * 0.05))
            .collect();
        let m = ev.encode_at(&slots, ev.context().max_level(), ev.context().scale());
        let ct = ev.encrypt_plaintext(&m, &keys, ev.context().max_level(), &mut rng);
        let conj = ev.conjugate(&ct, &keys);
        let dec = ev.decrypt_complex(&conj, &sk);
        for (z, w) in slots.iter().zip(&dec) {
            assert!((z.0 - w.0).abs() < 1e-2, "re {} vs {}", z.0, w.0);
            assert!((z.1 + w.1).abs() < 1e-2, "im {} vs {}", z.1, w.1);
        }
    }

    #[test]
    fn dnum_three_configuration_works() {
        let (ev, sk, keys, mut rng) = setup(32, 6, 2, 3, 18);
        let a: Vec<f64> = (0..16).map(|i| 0.4 + i as f64 * 0.02).collect();
        let ca = ev.encrypt_real(&a, &keys, &mut rng);
        let sq = ev.rescale(&ev.mul(&ca, &ca, &keys));
        let dec = ev.decrypt_real(&sq, &sk);
        let expect: Vec<f64> = a.iter().map(|x| x * x).collect();
        assert!(
            max_err(&dec, &expect) < 1e-2,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn trace_records_operations() {
        let (ev, _sk, keys, mut rng) = setup(64, 3, 2, 2, 19);
        let a: Vec<f64> = vec![1.0; 32];
        let ca = ev.encrypt_real(&a, &keys, &mut rng);
        let _ = ev.take_trace(); // clear encrypt-time noise ops
        let sum = ev.add(&ca, &ca);
        let _ = ev.rescale(&ev.mul(&sum, &ca, &keys));
        let tr = ev.take_trace();
        assert_eq!(tr.len(), 3);
        assert!(matches!(tr.ops[0], TraceOp::CkksAdd { .. }));
        assert!(matches!(tr.ops[1], TraceOp::CkksMulCt { .. }));
        assert!(matches!(tr.ops[2], TraceOp::CkksRescale { .. }));
    }
}
