//! CKKS bootstrapping building blocks: the BSGS homomorphic linear
//! transform, power-basis polynomial evaluation, and the
//! ModRaise → CoeffToSlot → EvalMod → SlotToCoeff pipeline.

use crate::ciphertext::Ciphertext;
use crate::encoding::Complex;
use crate::eval::Evaluator;
use crate::keys::{KeySet, SecretKey};
use rand::Rng;
use ufc_isa::trace::TraceOp;

/// The baby-step giant-step split of a transform spanning `span`
/// diagonals: `(g, b)` with `g = ⌈√span⌉` baby steps and
/// `b = ⌈span/g⌉` giant steps, so `g·b ≥ span`.
///
/// # Panics
///
/// Panics if `span` is zero.
pub fn bsgs_split(span: usize) -> (usize, usize) {
    assert!(span > 0, "transform span must be positive");
    let root = span.isqrt();
    let g = if root * root < span { root + 1 } else { root };
    (g, span.div_ceil(g))
}

/// The rotation steps a BSGS transform over `span` diagonals needs, in
/// key-generation order: baby steps `1..g`, then giant steps
/// `g, 2g, …, (b−1)·g` (see [`bsgs_split`]). The set depends only on
/// `span`, never on which diagonals are zero, so keys generated from
/// it always cover [`LinearTransform::apply`].
pub fn bsgs_steps(span: usize) -> Vec<isize> {
    let (g, b) = bsgs_split(span);
    let babies = 1..g;
    let giants = (1..b).map(|k| k * g);
    babies.chain(giants).map(|s| s as isize).collect()
}

/// A homomorphic linear transform `z ↦ M·z` on slot vectors, stored as
/// its non-zero generalized diagonals: the one slot mat-vec behind
/// both bootstrapping (CoeffToSlot / SlotToCoeff) and LWE→CKKS
/// repacking.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    slots: usize,
    /// Diagonal shifts lie in `0..span`; the BSGS split depends on it.
    span: usize,
    /// `(shift, diagonal values)` pairs: `out[i] += diag[i] * in[(i+shift) mod slots]`.
    diagonals: Vec<(usize, Vec<Complex>)>,
}

impl LinearTransform {
    /// Builds the transform from a dense `slots × slots` complex
    /// matrix, extracting non-zero diagonals (`span = slots`).
    pub fn from_matrix(m: &[Vec<Complex>]) -> Self {
        let slots = m.len();
        assert!(
            slots > 0 && m.iter().all(|r| r.len() == slots),
            "square matrix"
        );
        let diags = (0..slots)
            .map(|shift| {
                let diag = (0..slots).map(|i| m[i][(i + shift) % slots]).collect();
                (shift, diag)
            })
            .collect();
        Self::from_diagonals(slots, slots, diags)
    }

    /// Builds the transform from explicit `(shift, diagonal)` pairs
    /// with every shift below `span ≤ slots`, dropping all-zero
    /// diagonals. Repacking uses `span` = the LWE dimension.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero or exceeds `slots`, a shift is outside
    /// `0..span`, or a diagonal does not hold `slots` values.
    pub fn from_diagonals(slots: usize, span: usize, diags: Vec<(usize, Vec<Complex>)>) -> Self {
        assert!(0 < span && span <= slots, "span must lie in 1..=slots");
        let diagonals = diags
            .into_iter()
            .inspect(|(shift, diag)| {
                assert!(*shift < span, "shift {shift} outside span {span}");
                assert_eq!(diag.len(), slots, "diagonal length");
            })
            .filter(|(_, diag)| {
                diag.iter()
                    .any(|&(re, im)| re.abs() > 1e-12 || im.abs() > 1e-12)
            })
            .collect();
        Self {
            slots,
            span,
            diagonals,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The stored diagonals.
    pub fn diagonals(&self) -> &[(usize, Vec<Complex>)] {
        &self.diagonals
    }

    /// The rotation steps [`Self::apply`] needs: [`bsgs_steps`] of the
    /// span.
    pub fn rotation_steps(&self) -> Vec<isize> {
        bsgs_steps(self.span)
    }

    /// Reference (plaintext) application for validation.
    pub fn apply_plain(&self, z: &[Complex]) -> Vec<Complex> {
        assert_eq!(z.len(), self.slots);
        let mut out = vec![(0.0, 0.0); self.slots];
        for (shift, diag) in &self.diagonals {
            for i in 0..self.slots {
                let x = z[(i + shift) % self.slots];
                let d = diag[i];
                out[i].0 += d.0 * x.0 - d.1 * x.1;
                out[i].1 += d.0 * x.1 + d.1 * x.0;
            }
        }
        out
    }

    /// Applies the transform homomorphically with the **baby-step
    /// giant-step** method, consuming one level:
    /// `Σ_k rot_{kg}( Σ_j rot_{−kg}(diag_{kg+j}) ∘ rot_j(ct) )`.
    ///
    /// The `g − 1` baby rotations of `ct` share one hoisted
    /// decomposition (`Evaluator::hoist` + `rotate_hoisted`); each
    /// non-empty inner sum then takes one plain giant rotation, so a
    /// dense transform costs `(g − 1) + (b − 1)` rotations instead of
    /// one per diagonal — the structure behind the paper's
    /// bootstrapping rotation counts (§VI-D1's minimum-key method).
    ///
    /// # Panics
    ///
    /// Panics if the transform has no diagonal, its slot count differs
    /// from the context's, or a key from [`Self::rotation_steps`] is
    /// missing.
    pub fn apply(&self, ev: &Evaluator, ct: &Ciphertext, keys: &KeySet) -> Ciphertext {
        let s = self.slots;
        assert_eq!(s, ev.context().slots(), "transform size mismatch");
        let (g, b) = bsgs_split(self.span);
        let mut table: Vec<Option<&Vec<Complex>>> = vec![None; self.span];
        for (shift, diag) in &self.diagonals {
            table[*shift] = Some(diag);
        }
        let hoisted = ev.hoist(ct);
        let babies: Vec<Ciphertext> = (1..g)
            .map(|j| ev.rotate_hoisted(ct, &hoisted, j as isize, keys))
            .collect();
        let mut acc: Option<Ciphertext> = None;
        for k in 0..b {
            let mut inner: Option<Ciphertext> = None;
            for j in 0..g {
                let Some(diag) = table.get(k * g + j).copied().flatten() else {
                    continue;
                };
                // rot_{−kg}(diag): entry i holds diag[(i − kg) mod s].
                let twisted: Vec<Complex> =
                    (0..s).map(|i| diag[(i + s - (k * g) % s) % s]).collect();
                let baby = if j == 0 { ct } else { &babies[j - 1] };
                let coeffs = ev.encoder().encode(&twisted);
                let pt = ev.context().eval_from_signed(&coeffs, baby.level + 1);
                let term = ev.mul_plain(baby, &pt);
                inner = Some(match inner {
                    Some(a) => ev.add(&a, &term),
                    None => term,
                });
            }
            let Some(inner) = inner else { continue };
            let term = if k == 0 {
                inner
            } else {
                ev.rotate(&inner, (k * g) as isize, keys)
            };
            acc = Some(match acc {
                Some(a) => ev.add(&a, &term),
                None => term,
            });
        }
        ev.rescale(&acc.expect("transform has at least one diagonal"))
    }
}

/// Evaluates a polynomial `Σ c_k x^k` (real coefficients, degree ≤ 7
/// via direct power basis) homomorphically. Used by EvalMod's sine
/// approximation at test scale.
///
/// Consumes `ceil(log2(deg+1))` levels for the power ladder plus one
/// per coefficient multiply.
pub fn eval_poly(ev: &Evaluator, ct: &Ciphertext, coeffs: &[f64], keys: &KeySet) -> Ciphertext {
    assert!(
        !coeffs.is_empty() && coeffs.len() <= 8,
        "degree 0..7 supported"
    );
    // Build powers x^1..x^d with a simple square-and-multiply ladder.
    let deg = coeffs.len() - 1;
    let mut powers: Vec<Option<Ciphertext>> = vec![None; deg + 1];
    if deg >= 1 {
        powers[1] = Some(ct.clone());
    }
    for k in 2..=deg {
        let half = k / 2;
        let other = k - half;
        let a = powers[half].clone().expect("power computed");
        let b = powers[other].clone().expect("power computed");
        let p = ev.rescale(&ev.mul(&a, &b, keys));
        powers[k] = Some(p);
    }
    // Each term c_k·x^k: plaintext multiply at the power's own level,
    // rescale, then align every term to a common (level, scale) with
    // adjust_scale — scale drift across different rescale histories is
    // the reason the alignment pass exists.
    let slots = ev.context().slots();
    let mut terms: Vec<Ciphertext> = Vec::new();
    for (k, &c) in coeffs.iter().enumerate().skip(1) {
        if c == 0.0 {
            continue;
        }
        let p = powers[k].clone().expect("power computed");
        let pt = ev.encode_real_at(&vec![c; slots], p.level, ev.context().scale());
        let raw = ev.mul_plain_untraced(&p, &pt, ev.context().scale());
        terms.push(ev.rescale(&raw));
    }
    let target_level = terms
        .iter()
        .map(|t| t.level)
        .min()
        .expect("non-constant poly")
        - 1;
    let target_scale = ev.context().scale();
    let aligned: Vec<Ciphertext> = terms
        .iter()
        .map(|t| ev.adjust_scale(t, target_scale, target_level))
        .collect();
    let mut out = aligned[0].clone();
    for t in &aligned[1..] {
        out = ev.add(&out, t);
    }
    if coeffs[0] != 0.0 {
        let pt = ev.encode_real_at(&vec![coeffs[0]; slots], out.level, out.scale);
        out = ev.add_plain(&out, &pt);
    }
    out
}

/// Bootstrapping configuration at test scale.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Degree-7 odd polynomial approximating `(q/2πΔ)·sin(2πx/q)`
    /// on the reduced domain (Taylor series).
    pub sine_coeffs: Vec<f64>,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        // sin(2πt)/2π ≈ t - (2π)²t³/6 + (2π)⁴t⁵/120 - (2π)⁶t⁷/5040
        // for |t| ≤ 1/8 (t = x/q after ModRaise normalization).
        let w = std::f64::consts::TAU;
        Self {
            sine_coeffs: vec![
                0.0,
                1.0,
                0.0,
                -w * w / 6.0,
                0.0,
                w.powi(4) / 120.0,
                0.0,
                -w.powi(6) / 5040.0,
            ],
        }
    }
}

/// The bootstrapping engine: precomputed CoeffToSlot / SlotToCoeff
/// transforms plus the EvalMod polynomial.
#[derive(Debug)]
pub struct Bootstrapper {
    /// Slot-domain DFT-like transform used by CoeffToSlot (test-scale:
    /// the identity composed with scaling; see `new`).
    pub coeff_to_slot: LinearTransform,
    /// Its inverse (SlotToCoeff).
    pub slot_to_coeff: LinearTransform,
    /// EvalMod sine approximation.
    pub config: BootstrapConfig,
}

impl Bootstrapper {
    /// Builds the test-scale bootstrapper for `slots` slots.
    ///
    /// CoeffToSlot/SlotToCoeff are honest dense linear transforms (a
    /// scaled DFT pair), exercising the same rotation/key-switch
    /// kernels as production bootstrapping; the paper's cost model
    /// derives from the same structure at `N = 2^16`.
    pub fn new(slots: usize) -> Self {
        // A unitary DFT matrix and its inverse over the slot domain.
        let mut fwd = vec![vec![(0.0, 0.0); slots]; slots];
        let mut inv = vec![vec![(0.0, 0.0); slots]; slots];
        let norm = 1.0 / (slots as f64).sqrt();
        for (i, row) in fwd.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let th = std::f64::consts::TAU * (i * j % slots) as f64 / slots as f64;
                *cell = (norm * th.cos(), -norm * th.sin());
            }
        }
        for (i, row) in inv.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let th = std::f64::consts::TAU * (i * j % slots) as f64 / slots as f64;
                *cell = (norm * th.cos(), norm * th.sin());
            }
        }
        Self {
            coeff_to_slot: LinearTransform::from_matrix(&fwd),
            slot_to_coeff: LinearTransform::from_matrix(&inv),
            config: BootstrapConfig::default(),
        }
    }

    /// All rotation steps the two transforms need, for key
    /// generation: both span the full slot vector, so this is the one
    /// BSGS set [`bsgs_steps`]`(slots)` — the "minimum-key method" the
    /// paper adopts from ARK, sharing keys across both transforms.
    pub fn required_rotations(&self) -> Vec<isize> {
        let mut steps = self.coeff_to_slot.rotation_steps();
        steps.extend(self.slot_to_coeff.rotation_steps());
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Runs the slot-domain bootstrapping pipeline on a ciphertext:
    /// CoeffToSlot → EvalMod(sine) → SlotToCoeff, recording the
    /// ModRaise trace op. At test scale the modulus chain is short, so
    /// this validates the *pipeline structure and noise behaviour*
    /// rather than depth-30 parameters.
    pub fn bootstrap(&self, ev: &Evaluator, ct: &Ciphertext, keys: &KeySet) -> Ciphertext {
        ev.trace_mod_raise(ct.level as u32);
        let in_slots = self.coeff_to_slot.apply(ev, ct, keys);
        // Normalize the scale to exactly Δ before the polynomial
        // ladder: entering EvalMod below Δ compounds multiplicatively
        // through the power ladder and drops x^7 under the noise
        // floor.
        let normalized = ev.adjust_scale(&in_slots, ev.context().scale(), in_slots.level - 1);
        let reduced = eval_poly(ev, &normalized, &self.config.sine_coeffs, keys);
        self.slot_to_coeff.apply(ev, &reduced, keys)
    }
}

impl Evaluator {
    /// Records a ModRaise trace event (bootstrapping entry).
    pub fn trace_mod_raise(&self, from_level: u32) {
        self.record_public(TraceOp::CkksModRaise { from_level });
    }
}

/// Generates every rotation key a bootstrapper needs.
pub fn gen_bootstrap_keys<R: Rng + ?Sized>(
    ev: &Evaluator,
    bs: &Bootstrapper,
    keys: &mut KeySet,
    sk: &SecretKey,
    rng: &mut R,
) {
    for step in bs.required_rotations() {
        keys.gen_rotation_key(ev.context(), sk, step, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn setup(n: usize, q_limbs: usize, seed: u64) -> (Evaluator, SecretKey, KeySet, StdRng) {
        let dnum = q_limbs.div_ceil(3);
        let ctx = CkksContext::new(n, q_limbs, 3, dnum, 36, 34);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keys = KeySet::generate(&ctx, &sk, &mut rng);
        (Evaluator::new(ctx), sk, keys, rng)
    }

    #[test]
    fn linear_transform_plain_reference() {
        // Cyclic shift matrix: out[i] = in[(i+1) mod s].
        let s = 4;
        let mut m = vec![vec![(0.0, 0.0); s]; s];
        for (i, row) in m.iter_mut().enumerate() {
            row[(i + 1) % s] = (1.0, 0.0);
        }
        let lt = LinearTransform::from_matrix(&m);
        assert_eq!(lt.diagonals().len(), 1);
        let z: Vec<Complex> = (0..s).map(|i| (i as f64, 0.0)).collect();
        let out = lt.apply_plain(&z);
        assert_eq!(out[0].0, 1.0);
        assert_eq!(out[3].0, 0.0);
    }

    #[test]
    fn homomorphic_linear_transform_matches_plain() {
        let (ev, sk, mut keys, mut rng) = setup(16, 3, 31);
        let slots = ev.context().slots(); // 8
                                          // A small dense real matrix.
        let m: Vec<Vec<Complex>> = (0..slots)
            .map(|i| {
                (0..slots)
                    .map(|j| (((i * 3 + j) % 5) as f64 * 0.1, 0.0))
                    .collect()
            })
            .collect();
        let lt = LinearTransform::from_matrix(&m);
        let ctx = ev.context().clone();
        for step in lt.rotation_steps() {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        let z: Vec<f64> = (0..slots).map(|i| 0.2 * i as f64 - 0.5).collect();
        let ct = ev.encrypt_real(&z, &keys, &mut rng);
        let out = lt.apply(&ev, &ct, &keys);
        let dec = ev.decrypt_real(&out, &sk);
        let zc: Vec<Complex> = z.iter().map(|&v| (v, 0.0)).collect();
        let expect: Vec<f64> = lt.apply_plain(&zc).into_iter().map(|c| c.0).collect();
        assert!(
            max_err(&dec, &expect) < 0.05,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    /// A repack-shaped sparse transform: only the first `span < slots`
    /// shifts, some diagonals zero. BSGS `apply` must still match the
    /// plaintext diagonal-method oracle `apply_plain`.
    #[test]
    fn bsgs_matches_plain_diagonal_method() {
        let (ev, sk, mut keys, mut rng) = setup(16, 3, 35);
        let slots = ev.context().slots(); // 8
        let span = 4;
        let diags: Vec<(usize, Vec<Complex>)> = (0..span)
            .map(|shift| {
                let diag = (0..slots)
                    .map(|i| {
                        let v = if shift == 2 {
                            0.0
                        } else {
                            ((i * 2 + shift * 3) % 7) as f64 * 0.1 - 0.2
                        };
                        (v, 0.0)
                    })
                    .collect();
                (shift, diag)
            })
            .collect();
        let lt = LinearTransform::from_diagonals(slots, span, diags);
        assert_eq!(lt.diagonals().len(), span - 1, "zero diagonal dropped");
        assert_eq!(lt.rotation_steps(), bsgs_steps(span));
        let ctx = ev.context().clone();
        for step in lt.rotation_steps() {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        let z: Vec<f64> = (0..slots).map(|i| 0.1 * i as f64 - 0.3).collect();
        let ct = ev.encrypt_real(&z, &keys, &mut rng);
        let dec = ev.decrypt_real(&lt.apply(&ev, &ct, &keys), &sk);
        let zc: Vec<Complex> = z.iter().map(|&v| (v, 0.0)).collect();
        let expect: Vec<f64> = lt.apply_plain(&zc).into_iter().map(|c| c.0).collect();
        assert!(
            max_err(&dec, &expect) < 0.02,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn bsgs_uses_fewer_rotations() {
        let (ev, sk, mut keys, mut rng) = setup(16, 3, 36);
        let slots = ev.context().slots();
        // Dense matrix → all `slots` diagonals present.
        let m: Vec<Vec<Complex>> = (0..slots)
            .map(|i| (0..slots).map(|j| ((i + j) as f64 * 0.01, 0.0)).collect())
            .collect();
        let lt = LinearTransform::from_matrix(&m);
        assert_eq!(lt.diagonals().len(), slots);
        let ctx = ev.context().clone();
        for step in lt.rotation_steps() {
            keys.gen_rotation_key(&ctx, &sk, step, &mut rng);
        }
        let ct = ev.encrypt_real(&vec![0.1; slots], &keys, &mut rng);
        let _ = ev.take_trace();
        let _ = lt.apply(&ev, &ct, &keys);
        let rots = count_rotations(&ev.take_trace());
        // (g−1) babies + (⌈s/g⌉−1) giants = 2 + 2 = 4 < 7 diagonals.
        let (g, b) = bsgs_split(slots);
        assert_eq!((g, b), (3, 3));
        assert_eq!(rots, (g - 1) + (slots.div_ceil(g) - 1));
        assert_eq!(rots, 4);
    }

    #[test]
    fn bsgs_step_set_depends_only_on_span() {
        assert_eq!(bsgs_split(1), (1, 1));
        assert_eq!(bsgs_split(16), (4, 4));
        assert_eq!(bsgs_split(17), (5, 4));
        assert_eq!(bsgs_steps(16), vec![1, 2, 3, 4, 8, 12]);
        assert_eq!(bsgs_steps(8), vec![1, 2, 3, 6]);
        let bs = Bootstrapper::new(8);
        assert_eq!(bs.required_rotations(), bsgs_steps(8));
    }

    fn count_rotations(tr: &ufc_isa::Trace) -> usize {
        tr.ops
            .iter()
            .filter(|o| matches!(o, TraceOp::CkksRotate { .. }))
            .count()
    }

    #[test]
    fn eval_poly_cubic() {
        let (ev, sk, keys, mut rng) = setup(16, 5, 32);
        let x: Vec<f64> = (0..8).map(|i| -0.4 + 0.1 * i as f64).collect();
        let ct = ev.encrypt_real(&x, &keys, &mut rng);
        // p(x) = 0.5 + x - 2x^3.
        let out = eval_poly(&ev, &ct, &[0.5, 1.0, 0.0, -2.0], &keys);
        let dec = ev.decrypt_real(&out, &sk);
        let expect: Vec<f64> = x.iter().map(|&v| 0.5 + v - 2.0 * v * v * v).collect();
        assert!(
            max_err(&dec, &expect) < 0.05,
            "err {}",
            max_err(&dec, &expect)
        );
    }

    #[test]
    fn sine_approximation_reduces_modulo() {
        // The EvalMod polynomial should act as identity for small
        // inputs (|t| << 1): sin(2πt)/2π ≈ t.
        let cfg = BootstrapConfig::default();
        for &t in &[-0.05f64, 0.0, 0.02, 0.06] {
            let approx: f64 = cfg
                .sine_coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c * t.powi(k as i32))
                .sum();
            let exact = (std::f64::consts::TAU * t).sin() / std::f64::consts::TAU;
            assert!((approx - exact).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn bootstrap_pipeline_preserves_message() {
        let (ev, sk, mut keys, mut rng) = setup(16, 9, 33);
        let bs = Bootstrapper::new(ev.context().slots());
        gen_bootstrap_keys(&ev, &bs, &mut keys, &sk, &mut rng);
        let vals: Vec<f64> = (0..8).map(|i| 0.01 * i as f64 - 0.03).collect();
        let ct = ev.encrypt_real(&vals, &keys, &mut rng);
        let out = bs.bootstrap(&ev, &ct, &keys);
        let dec = ev.decrypt_real(&out, &sk);
        assert!(max_err(&dec, &vals) < 0.02, "err {}", max_err(&dec, &vals));
        // The trace must record the pipeline: ModRaise + rotations +
        // plaintext muls + rescales + the EvalMod multiplies.
        let tr = ev.take_trace();
        assert!(tr
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::CkksModRaise { .. })));
        assert!(tr.len() > 10);
    }
}
