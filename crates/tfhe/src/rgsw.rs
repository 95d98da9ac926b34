//! RGSW ciphertexts, external products and CMux — the engine of
//! TFHE's blind rotation.

use crate::context::TfheContext;
use crate::rlwe::{plane_of, RlweCiphertext};
use rand::Rng;
use ufc_math::plane::RnsPlane;
use ufc_math::poly::{Form, Poly};

/// The `levels` RLWE rows that multiply the digits of one operand
/// component, stacked one gadget level per limb, in evaluation form.
#[derive(Debug, Clone)]
struct RowStack {
    /// Row masks: limb `l` is level `l`'s `a` polynomial.
    mask: RnsPlane,
    /// Row bodies: limb `l` is level `l`'s `b` polynomial.
    body: RnsPlane,
}

/// An RGSW encryption of a small scalar/monomial `m`: `2·levels` RLWE
/// rows arranged as `Z + m·G` (§II-A3).
///
/// The `a`-rows (RLWE(0) with `m·w_l` added to the mask) multiply the
/// digits of an operand's mask; the `b`-rows (RLWE(`m·w_l`)) multiply
/// the digits of its body. Each row is stored once, in evaluation
/// form, so an external product only transforms the *digits* of its
/// RLWE operand (one forward NTT per digit plus one inverse per output
/// component).
#[derive(Debug, Clone)]
pub struct RgswCiphertext {
    /// `[a-rows, b-rows]`.
    rows: [RowStack; 2],
}

impl RgswCiphertext {
    /// Encrypts plaintext polynomial `m` (usually a bit or a monomial)
    /// under ring key `s`.
    pub fn encrypt<R: Rng + ?Sized>(
        ctx: &TfheContext,
        s_signed: &[i64],
        m: &Poly,
        rng: &mut R,
    ) -> Self {
        let g = ctx.gadget();
        let (n, q, levels) = (ctx.ring_dim(), ctx.q(), g.levels());
        let m = plane_of(m);
        let zero = RnsPlane::zero(n, &[q], Form::Coeff);
        // Row polynomials, coefficient form, stacked per level:
        // [a-row masks, a-row bodies, b-row masks, b-row bodies].
        let mut stacks: [Vec<u64>; 4] = std::array::from_fn(|_| Vec::with_capacity(levels * n));
        for l in 0..levels {
            let mut mw = m.clone();
            mw.scale_limbs_assign(&[g.weight(l)]);
            // a-row: RLWE(0), then add m·w to the mask.
            let mut a_row = RlweCiphertext::encrypt_plane(ctx, s_signed, &zero, rng);
            a_row.a.add_assign(&mw);
            // b-row: RLWE(m·w).
            let b_row = RlweCiphertext::encrypt_plane(ctx, s_signed, &mw, rng);
            for (stack, row) in stacks
                .iter_mut()
                .zip([&a_row.a, &a_row.b, &b_row.a, &b_row.b])
            {
                stack.extend_from_slice(row.flat());
            }
        }
        let moduli = vec![q; levels];
        let tables = vec![ctx.ntt(); levels];
        let [am, ab, bm, bb] = stacks.map(|flat| {
            let mut plane = RnsPlane::from_flat_unchecked(flat, &moduli, Form::Coeff);
            plane.ntt_forward(&tables);
            plane
        });
        Self {
            rows: [
                RowStack { mask: am, body: ab },
                RowStack { mask: bm, body: bb },
            ],
        }
    }

    /// Encrypts the scalar bit `bit ∈ {0, 1}` (used for bootstrapping
    /// keys).
    pub fn encrypt_bit<R: Rng + ?Sized>(
        ctx: &TfheContext,
        s_signed: &[i64],
        bit: u64,
        rng: &mut R,
    ) -> Self {
        let m = Poly::monomial(bit, 0, ctx.ring_dim(), ctx.q());
        Self::encrypt(ctx, s_signed, &m, rng)
    }

    /// The rows in coefficient form, `[a-rows, b-rows]`, one RLWE
    /// ciphertext per gadget level: an inverse transform of the cached
    /// evaluation-form rows, for inspection and reference products.
    pub fn coeff_rows(&self, ctx: &TfheContext) -> [Vec<RlweCiphertext>; 2] {
        let tables = [ctx.ntt()];
        let coeff_limb = |plane: &RnsPlane, l: usize| {
            let mut limb =
                RnsPlane::from_flat_unchecked(plane.limb(l).to_vec(), &[ctx.q()], Form::Eval);
            limb.ntt_inverse(&tables);
            limb
        };
        self.rows.each_ref().map(|rows| {
            (0..rows.mask.limb_count())
                .map(|l| RlweCiphertext {
                    a: coeff_limb(&rows.mask, l),
                    b: coeff_limb(&rows.body, l),
                })
                .collect()
        })
    }

    /// External product `self ⊡ ct`: returns an RLWE encryption of
    /// `m · phase(ct)` — the NTT/EWMM-heavy kernel of functional
    /// bootstrapping. Each component of `ct` is gadget-decomposed into
    /// one digit plane (`levels` limbs over `q`), forward-transformed,
    /// and MAC-folded against the cached evaluation-form rows; the two
    /// accumulators are inverted at the end.
    pub fn external_product(&self, ctx: &TfheContext, ct: &RlweCiphertext) -> RlweCiphertext {
        let _span = ufc_trace::span_n("tfhe", "external_product", ctx.ring_dim() as u64);
        let g = ctx.gadget();
        let (n, q) = (ctx.ring_dim(), ctx.q());
        let tables = vec![ctx.ntt(); g.levels()];
        let mut acc_a = RnsPlane::zero(n, &[q], Form::Eval);
        let mut acc_b = RnsPlane::zero(n, &[q], Form::Eval);
        for (component, rows) in [&ct.a, &ct.b].into_iter().zip(&self.rows) {
            let mut digits = g.decompose_plane(component.limb(0));
            digits.ntt_forward(&tables);
            acc_a.mac_limbs_assign(&digits, &rows.mask);
            acc_b.mac_limbs_assign(&digits, &rows.body);
        }
        acc_a.ntt_inverse(&tables[..1]);
        acc_b.ntt_inverse(&tables[..1]);
        RlweCiphertext { a: acc_a, b: acc_b }
    }

    /// CMux: returns an encryption of `ct0` if the RGSW bit is 0 and
    /// `ct1` if it is 1: `ct0 + bit ⊡ (ct1 - ct0)`. Consumes `ct1` as
    /// the buffer for the difference.
    pub fn cmux(
        &self,
        ctx: &TfheContext,
        ct0: &RlweCiphertext,
        mut ct1: RlweCiphertext,
    ) -> RlweCiphertext {
        ct1.sub_assign(ct0);
        let mut out = self.external_product(ctx, &ct1);
        out.add_assign(ct0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ufc_math::modops::to_signed;

    fn setup() -> (TfheContext, Vec<i64>, StdRng) {
        let ctx = TfheContext::new(16, 128, 7, 3, 6, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let s: Vec<i64> = (0..128).map(|_| rng.gen_range(0..=1i64)).collect();
        (ctx, s, rng)
    }

    fn phase_error(ctx: &TfheContext, got: &Poly, want: &Poly) -> i64 {
        got.coeffs()
            .iter()
            .zip(want.coeffs())
            .map(|(&g, &w)| {
                to_signed(if g >= w { g - w } else { ctx.q() - (w - g) }, ctx.q()).abs()
            })
            .max()
            .unwrap()
    }

    #[test]
    fn external_product_by_one_is_identity() {
        let (ctx, s, mut rng) = setup();
        let m = Poly::from_coeffs((0..128u64).map(|i| ctx.encode(i % 4, 4)).collect(), ctx.q());
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let one = RgswCiphertext::encrypt_bit(&ctx, &s, 1, &mut rng);
        let out = one.external_product(&ctx, &ct);
        let err = phase_error(&ctx, &out.phase(&ctx, &s), &m);
        assert!(err < (ctx.q() / 64) as i64, "err = {err}");
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let (ctx, s, mut rng) = setup();
        let m = Poly::from_coeffs(vec![ctx.encode(1, 2); 128], ctx.q());
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let zero = RgswCiphertext::encrypt_bit(&ctx, &s, 0, &mut rng);
        let out = zero.external_product(&ctx, &ct);
        let z = Poly::zero(128, ctx.q());
        let err = phase_error(&ctx, &out.phase(&ctx, &s), &z);
        assert!(err < (ctx.q() / 64) as i64, "err = {err}");
    }

    #[test]
    fn external_product_by_monomial_rotates() {
        let (ctx, s, mut rng) = setup();
        let m = Poly::monomial(ctx.encode(1, 4), 0, 128, ctx.q());
        let ct = RlweCiphertext::encrypt(&ctx, &s, &m, &mut rng);
        let x3 = Poly::monomial(1, 3, 128, ctx.q());
        let rgsw = RgswCiphertext::encrypt(&ctx, &s, &x3, &mut rng);
        let out = rgsw.external_product(&ctx, &ct);
        let expect = m.rotate_monomial(3);
        let err = phase_error(&ctx, &out.phase(&ctx, &s), &expect);
        assert!(err < (ctx.q() / 64) as i64, "err = {err}");
    }

    #[test]
    fn coeff_rows_decrypt_to_gadget_multiples() {
        let (ctx, s, mut rng) = setup();
        let rgsw = RgswCiphertext::encrypt_bit(&ctx, &s, 1, &mut rng);
        let [a_rows, b_rows] = rgsw.coeff_rows(&ctx);
        assert_eq!(a_rows.len(), ctx.gadget().levels());
        for (l, row) in b_rows.iter().enumerate() {
            // b-row l is RLWE(w_l): the constant w_l plus noise.
            let want = Poly::monomial(ctx.gadget().weight(l), 0, 128, ctx.q());
            let err = phase_error(&ctx, &row.phase(&ctx, &s), &want);
            assert!(err < 64, "level {l}: err = {err}");
        }
        for (l, row) in a_rows.iter().enumerate() {
            // a-row l carries w_l on the mask, so its phase is -w_l·s.
            let neg_w = ctx.q() - ctx.gadget().weight(l);
            let want = Poly::from_signed(&s, ctx.q()).scale(neg_w);
            let err = phase_error(&ctx, &row.phase(&ctx, &s), &want);
            assert!(err < 64, "level {l}: err = {err}");
        }
    }

    #[test]
    fn cmux_selects() {
        let (ctx, s, mut rng) = setup();
        let m0 = Poly::from_coeffs(vec![ctx.encode(0, 4); 128], ctx.q());
        let m1 = Poly::from_coeffs(vec![ctx.encode(1, 4); 128], ctx.q());
        let ct0 = RlweCiphertext::encrypt(&ctx, &s, &m0, &mut rng);
        let ct1 = RlweCiphertext::encrypt(&ctx, &s, &m1, &mut rng);
        for bit in [0u64, 1] {
            let sel = RgswCiphertext::encrypt_bit(&ctx, &s, bit, &mut rng);
            let out = sel.cmux(&ctx, &ct0, ct1.clone());
            let want = if bit == 0 { &m0 } else { &m1 };
            let err = phase_error(&ctx, &out.phase(&ctx, &s), want);
            assert!(err < (ctx.q() / 64) as i64, "bit={bit} err={err}");
        }
    }
}
