//! The flat RNS data plane: one contiguous limb-major buffer shared by
//! every scheme.
//!
//! The paper's unification argument (CKKS and TFHE decompose onto the
//! same butterfly / modular-ALU / decomposition units) applies to the
//! software model too: instead of each crate pushing its own
//! `Vec<Poly>`-of-`Vec<u64>`, an [`RnsPlane`] stores all residue limbs
//! of a polynomial in a single `Vec<u64>` with stride `n` (limb `i`
//! occupies `data[i*n .. (i+1)*n]`), plus per-limb moduli and a
//! [`Form`] tag. It is the only container either scheme keeps
//! ciphertexts, keys and evaluator intermediates in: a CKKS
//! polynomial is a plane over its active `Q` (and `P`) limbs, a TFHE
//! RLWE component is a single-limb plane over the 31-bit `q`, and an
//! RGSW row stack or gadget digit set is a plane with one limb per
//! level over that same `q`. Operations fan out across limbs via
//! [`crate::par::par_limbs`]; the element-wise kernels
//! (add/sub/hadamard/mac/scale) go through [`crate::simd`]'s per-op
//! dispatch, which routes each op by the host's features and each
//! limb's modulus — AVX2 for add/sub/scale, AVX-512 IFMA 52-bit
//! Barrett for hadamard/mac below 2⁵⁰, the bit-identical portable
//! unroll otherwise. TFHE's 31-bit `q` therefore takes the IFMA route
//! where the host has it.

use crate::automorph::{apply_coeff_slice, apply_eval_slice};
use crate::modops::{
    add_mod, from_signed, inv_mod, mul_shoup, neg_mod, shoup_precompute, sub_mod, Barrett,
};
use crate::ntt::{NttContext, NttKernel};
use crate::par::{par_limbs, with_scratch};
use crate::poly::{Form, Poly};
use crate::simd;

/// A polynomial in RNS representation, stored limb-major in one flat
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPlane {
    /// Limb-major residues: limb `i` is `data[i*n .. (i+1)*n]`.
    data: Vec<u64>,
    /// The modulus of each limb, aligned with the limb order.
    moduli: Vec<u64>,
    /// Ring dimension (the stride between limbs).
    n: usize,
    /// Which basis the residues are expressed in.
    form: Form,
}

impl RnsPlane {
    /// The zero plane of dimension `n` over `moduli`.
    ///
    /// # Panics
    ///
    /// Panics if `moduli` is empty or `n == 0`.
    pub fn zero(n: usize, moduli: &[u64], form: Form) -> Self {
        assert!(n > 0, "ring dimension must be positive");
        assert!(!moduli.is_empty(), "need at least one limb");
        Self {
            data: vec![0; n * moduli.len()],
            moduli: moduli.to_vec(),
            n,
            form,
        }
    }

    /// Wraps a flat limb-major buffer whose residues are **already
    /// reduced** against their limb moduli (checked in debug builds
    /// only — the unchecked ingestion path).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not `n · moduli.len()` for some
    /// `n > 0`, and debug-panics on unreduced residues.
    pub fn from_flat_unchecked(data: Vec<u64>, moduli: &[u64], form: Form) -> Self {
        assert!(!moduli.is_empty(), "need at least one limb");
        assert_eq!(data.len() % moduli.len(), 0, "buffer must be whole limbs");
        let n = data.len() / moduli.len();
        assert!(n > 0, "ring dimension must be positive");
        debug_assert!(
            data.chunks(n)
                .zip(moduli)
                .all(|(chunk, &q)| chunk.iter().all(|&c| c < q)),
            "from_flat_unchecked requires reduced residues"
        );
        Self {
            data,
            moduli: moduli.to_vec(),
            n,
            form,
        }
    }

    /// Wraps a flat limb-major buffer, reducing every residue against
    /// its limb modulus.
    pub fn from_flat(mut data: Vec<u64>, moduli: &[u64], form: Form) -> Self {
        assert!(!moduli.is_empty(), "need at least one limb");
        assert_eq!(data.len() % moduli.len(), 0, "buffer must be whole limbs");
        let n = data.len() / moduli.len();
        for (chunk, &q) in data.chunks_mut(n).zip(moduli) {
            for c in chunk {
                *c %= q;
            }
        }
        Self::from_flat_unchecked(data, moduli, form)
    }

    /// Builds a coefficient-form plane from signed (centered)
    /// coefficients, reduced against every limb modulus.
    pub fn from_signed(signed: &[i64], moduli: &[u64]) -> Self {
        assert!(!moduli.is_empty(), "need at least one limb");
        let n = signed.len();
        let mut data = Vec::with_capacity(n * moduli.len());
        for &q in moduli {
            data.extend(signed.iter().map(|&v| from_signed(v, q)));
        }
        Self::from_flat_unchecked(data, moduli, Form::Coeff)
    }

    /// Builds a plane by flattening per-limb polynomials.
    ///
    /// # Panics
    ///
    /// Panics if `polys` is empty or dimensions mismatch.
    pub fn from_polys(polys: &[Poly], form: Form) -> Self {
        assert!(!polys.is_empty(), "need at least one limb");
        let n = polys[0].dim();
        let mut data = Vec::with_capacity(n * polys.len());
        let mut moduli = Vec::with_capacity(polys.len());
        for p in polys {
            assert_eq!(p.dim(), n, "limb dimension mismatch");
            data.extend_from_slice(p.coeffs());
            moduli.push(p.modulus());
        }
        Self::from_flat_unchecked(data, &moduli, form)
    }

    /// Ring dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of RNS limbs.
    #[inline]
    pub fn limb_count(&self) -> usize {
        self.moduli.len()
    }

    /// The limb moduli, in limb order.
    #[inline]
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Modulus of limb `i`.
    #[inline]
    pub fn modulus(&self, i: usize) -> u64 {
        self.moduli[i]
    }

    /// Current basis.
    #[inline]
    pub fn form(&self) -> Form {
        self.form
    }

    /// Read-only view of limb `i`.
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable view of limb `i`.
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// The whole flat buffer.
    #[inline]
    pub fn flat(&self) -> &[u64] {
        &self.data
    }

    /// Copies limb `i` out as a standalone [`Poly`].
    pub fn limb_poly(&self, i: usize) -> Poly {
        Poly::from_coeffs_unchecked(self.limb(i).to_vec(), self.moduli[i])
    }

    /// An explicit copy of the first `count` limbs (the zero-copy
    /// plane has no implicit `clone()` on hot paths; prefix copies are
    /// spelled out).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the limb count.
    pub fn prefix(&self, count: usize) -> Self {
        assert!(count > 0 && count <= self.limb_count());
        Self {
            data: self.data[..count * self.n].to_vec(),
            moduli: self.moduli[..count].to_vec(),
            n: self.n,
            form: self.form,
        }
    }

    /// Drops all limbs past the first `count`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the limb count.
    pub fn truncate_limbs(&mut self, count: usize) {
        assert!(count > 0 && count <= self.limb_count());
        self.data.truncate(count * self.n);
        self.moduli.truncate(count);
    }

    /// Moves limbs `at..` out into a new plane of the same form,
    /// keeping limbs `..at`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < at < limb_count()`.
    pub(crate) fn split_off_limbs(&mut self, at: usize) -> Self {
        assert!(at > 0 && at < self.limb_count(), "split inside the limbs");
        Self {
            data: self.data.split_off(at * self.n),
            moduli: self.moduli.split_off(at),
            n: self.n,
            form: self.form,
        }
    }

    fn check(&self, rhs: &Self) {
        assert_eq!(self.n, rhs.n, "plane dimension mismatch");
        assert_eq!(self.moduli, rhs.moduli, "plane moduli mismatch");
        assert_eq!(self.form, rhs.form, "plane form mismatch");
    }

    /// In-place sum: `self ← self + rhs` (forms must match).
    pub fn add_assign(&mut self, rhs: &Self) {
        self.check(rhs);
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::add_mod_slice(chunk, rhs.limb(i), moduli[i]);
        });
    }

    /// In-place difference: `self ← self - rhs`.
    pub fn sub_assign(&mut self, rhs: &Self) {
        self.check(rhs);
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::sub_mod_slice(chunk, rhs.limb(i), moduli[i]);
        });
    }

    /// In-place negation.
    pub fn neg_assign(&mut self) {
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            let q = moduli[i];
            for a in chunk.iter_mut() {
                *a = neg_mod(*a, q);
            }
        });
    }

    /// In-place Hadamard product: `self ← self ∘ rhs`.
    ///
    /// # Panics
    ///
    /// Panics unless both planes are in evaluation form.
    pub fn hadamard_assign(&mut self, rhs: &Self) {
        self.check(rhs);
        assert_eq!(
            self.form,
            Form::Eval,
            "hadamard requires evaluation form operands"
        );
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::mul_mod_slice(chunk, rhs.limb(i), moduli[i]);
        });
    }

    /// Multiply-accumulate: `self ← self + a ∘ b`. All three planes
    /// must be in evaluation form over the same moduli.
    pub fn mac_assign(&mut self, a: &Self, b: &Self) {
        self.check(a);
        self.check(b);
        assert_eq!(self.form, Form::Eval, "mac requires evaluation form");
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            simd::mac_mod_slice(chunk, a.limb(i), b.limb(i), moduli[i]);
        });
    }

    /// Limb-folding multiply-accumulate: `self ← self + Σ_l a_l ∘ b_l`.
    /// `self` has one limb; `a` and `b` carry one limb per term
    /// (e.g. per gadget level), all over `self`'s modulus and in
    /// evaluation form — the digit-by-row inner product of the RGSW
    /// external product.
    ///
    /// # Panics
    ///
    /// Panics unless `self` has one limb, `a` and `b` agree in shape,
    /// and every limb of `a` is over `self`'s modulus.
    pub fn mac_limbs_assign(&mut self, a: &Self, b: &Self) {
        a.check(b);
        assert_eq!(self.limb_count(), 1, "mac_limbs accumulates into one limb");
        assert_eq!(self.n, a.n, "plane dimension mismatch");
        assert_eq!(self.form, Form::Eval, "mac requires evaluation form");
        assert_eq!(a.form, Form::Eval, "mac requires evaluation form");
        let q = self.moduli[0];
        assert!(a.moduli.iter().all(|&m| m == q), "plane moduli mismatch");
        for l in 0..a.limb_count() {
            simd::mac_mod_slice(&mut self.data, a.limb(l), b.limb(l), q);
        }
    }

    /// Adds the integer polynomial with centered coefficients `signed`,
    /// scaled per limb by `scalars[i]`, to every limb: limb `i` gains
    /// `scalars[i] · [signed]_{q_i}`. Fuses [`Self::from_signed`],
    /// [`Self::scale_limbs_assign`] and [`Self::add_assign`] without a
    /// plane-sized temporary.
    ///
    /// # Panics
    ///
    /// Panics unless the plane is in coefficient form, `signed` has
    /// `dim()` entries and `scalars` one per limb.
    pub fn add_signed_assign(&mut self, signed: &[i64], scalars: &[u64]) {
        assert_eq!(
            self.form,
            Form::Coeff,
            "integer polynomials add in coefficient form"
        );
        assert_eq!(signed.len(), self.n, "coefficient count mismatch");
        assert_eq!(scalars.len(), self.limb_count(), "one scalar per limb");
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            let q = moduli[i];
            let s = scalars[i] % q;
            let s_shoup = shoup_precompute(s, q);
            for (c, &v) in chunk.iter_mut().zip(signed) {
                *c = add_mod(*c, mul_shoup(from_signed(v, q), s, s_shoup, q), q);
            }
        });
    }

    /// In-place per-limb scalar multiply (Shoup): limb `i` is scaled
    /// by `scalars[i] mod q_i`.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the limb count.
    pub fn scale_limbs_assign(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.limb_count(), "one scalar per limb");
        let (n, moduli) = (self.n, &self.moduli);
        par_limbs(n, &mut self.data, |i, chunk| {
            let q = moduli[i];
            let s = scalars[i] % q;
            let s_shoup = shoup_precompute(s, q);
            simd::scale_shoup_slice(chunk, s, s_shoup, q);
        });
    }

    /// In-place Galois automorphism `X ↦ X^k`, dispatching on the
    /// current form (coefficient scatter or evaluation permutation).
    /// Each limb is permuted into a per-worker scratch buffer
    /// ([`crate::par::with_scratch`]) and copied back.
    pub fn automorph_assign(&mut self, k: usize) {
        let (n, moduli, form) = (self.n, &self.moduli, self.form);
        par_limbs(n, &mut self.data, |i, chunk| {
            with_scratch(n, |buf| {
                automorph_limb(form, chunk, buf, k, moduli[i]);
                chunk.copy_from_slice(buf);
            });
        });
    }

    /// Out-of-place Galois automorphism `X ↦ X^k`: each limb is
    /// written once, straight into the new plane.
    pub fn automorph(&self, k: usize) -> Self {
        let mut data = vec![0; self.data.len()];
        par_limbs(self.n, &mut data, |i, chunk| {
            automorph_limb(self.form, self.limb(i), chunk, k, self.moduli[i]);
        });
        Self {
            data,
            moduli: self.moduli.clone(),
            n: self.n,
            form: self.form,
        }
    }

    /// Multiplication by the monomial `X^k` in the negacyclic ring
    /// (`X^N = -1`, `k` taken mod `2N`): coefficient `i` moves to
    /// `i + k`, negated each time it wraps past `N`. This is TFHE's
    /// `Rotate` primitive (Table I), the step of blind rotation.
    ///
    /// # Panics
    ///
    /// Panics unless the plane is in coefficient form.
    pub fn rotate_monomial(&self, k: usize) -> Self {
        assert_eq!(self.form, Form::Coeff, "rotation requires coefficient form");
        let n = self.n;
        let k = k % (2 * n);
        // X^k = ±X^shift, with the sign flipped when k ≥ N.
        let (shift, flip) = if k < n { (k, false) } else { (k - n, true) };
        let mut data = vec![0; self.data.len()];
        for ((dst, src), &q) in data
            .chunks_mut(n)
            .zip(self.data.chunks(n))
            .zip(&self.moduli)
        {
            let signed = |v: u64, negate: bool| if negate { neg_mod(v, q) } else { v };
            let (head, tail) = src.split_at(n - shift);
            for (d, &s) in dst[shift..].iter_mut().zip(head) {
                *d = signed(s, flip);
            }
            for (d, &s) in dst[..shift].iter_mut().zip(tail) {
                *d = signed(s, !flip);
            }
        }
        Self {
            data,
            moduli: self.moduli.clone(),
            n,
            form: Form::Coeff,
        }
    }

    /// In-place forward NTT of every limb: coefficient → evaluation
    /// form. `tables[i]` must be the NTT context for limb `i`.
    ///
    /// # Panics
    ///
    /// Panics if the plane is already in evaluation form or a table's
    /// modulus/dimension disagrees with its limb.
    pub fn ntt_forward(&mut self, tables: &[&NttContext]) {
        assert_eq!(self.form, Form::Coeff, "plane already in evaluation form");
        self.apply_tables(tables, false, None);
        self.form = Form::Eval;
    }

    /// In-place inverse NTT of every limb: evaluation → coefficient
    /// form.
    ///
    /// # Panics
    ///
    /// Panics if the plane is already in coefficient form.
    pub fn ntt_inverse(&mut self, tables: &[&NttContext]) {
        assert_eq!(self.form, Form::Eval, "plane already in coefficient form");
        self.apply_tables(tables, true, None);
        self.form = Form::Coeff;
    }

    /// [`Self::ntt_forward`] through an explicitly chosen kernel on
    /// every limb, bypassing each table's own dispatch — the plane
    /// entry point of the cross-kernel conformance suite.
    pub fn ntt_forward_with(&mut self, tables: &[&NttContext], kernel: NttKernel) {
        assert_eq!(self.form, Form::Coeff, "plane already in evaluation form");
        self.apply_tables(tables, false, Some(kernel));
        self.form = Form::Eval;
    }

    /// [`Self::ntt_inverse`] through an explicitly chosen kernel on
    /// every limb.
    pub fn ntt_inverse_with(&mut self, tables: &[&NttContext], kernel: NttKernel) {
        assert_eq!(self.form, Form::Eval, "plane already in coefficient form");
        self.apply_tables(tables, true, Some(kernel));
        self.form = Form::Coeff;
    }

    fn check_tables(&self, tables: &[&NttContext]) {
        assert_eq!(tables.len(), self.limb_count(), "one NTT table per limb");
        for (t, &q) in tables.iter().zip(&self.moduli) {
            assert_eq!(t.dim(), self.n, "NTT table dimension mismatch");
            assert_eq!(t.modulus(), q, "NTT table modulus mismatch");
        }
    }

    fn apply_tables(&mut self, tables: &[&NttContext], inverse: bool, kernel: Option<NttKernel>) {
        self.check_tables(tables);
        // The table's own dispatch goes through `forward`/`inverse`, so
        // plane transforms carry the same kernel-tagged trace span as
        // slice transforms; a forced kernel takes the span-free path.
        par_limbs(self.n, &mut self.data, |i, chunk| match (kernel, inverse) {
            (None, false) => tables[i].forward(chunk),
            (None, true) => tables[i].inverse(chunk),
            (Some(k), false) => tables[i].forward_with(k, chunk),
            (Some(k), true) => tables[i].inverse_with(k, chunk),
        });
    }

    /// RNS rescale with rounding: drops the last limb `q_L` and
    /// replaces each remaining limb by
    /// `(c_i + h - [c_L + h]_{q_L}) · q_L^{-1} mod q_i`, `h = ⌊q_L/2⌋` —
    /// exact division of `c + h` by `q_L`, i.e. `round(c / q_L)` on
    /// centered representatives.
    ///
    /// # Panics
    ///
    /// Panics unless the plane is in coefficient form with at least
    /// two limbs.
    pub fn rescale_assign(&mut self) {
        assert_eq!(self.form, Form::Coeff, "rescale requires coefficient form");
        let count = self.limb_count();
        assert!(count >= 2, "rescale needs at least two limbs");
        let n = self.n;
        let q_last = self.moduli[count - 1];
        let half = q_last / 2;
        let moduli = &self.moduli;
        let (head, tail) = self.data.split_at_mut((count - 1) * n);
        // The last limb shifted by h: [c_L + h]_{q_L}.
        let last: Vec<u64> = tail.iter().map(|&c| add_mod(c, half, q_last)).collect();
        par_limbs(n, head, |i, chunk| {
            let qi = moduli[i];
            let br = Barrett::new(qi);
            let half_i = half % qi;
            let inv = inv_mod(q_last % qi, qi).expect("coprime moduli");
            let inv_shoup = shoup_precompute(inv, qi);
            for (a, &b) in chunk.iter_mut().zip(&last) {
                let b_red = br.reduce_u128(b as u128);
                let shifted = add_mod(*a, half_i, qi);
                *a = mul_shoup(sub_mod(shifted, b_red, qi), inv, inv_shoup, qi);
            }
        });
        self.truncate_limbs(count - 1);
    }

    /// [`Self::rescale_assign`] in evaluation form, bit for bit: only
    /// the dropped limb goes to coefficient form. Each remaining limb
    /// gains the forward transform of `[h − [c_L + h]_{q_L}]_{q_i}` and
    /// is scaled by `q_L^{-1}` — the same `round(c / q_L)` with `L + 1`
    /// transforms where the coefficient-form route takes `2L + 1`.
    /// `tables[i]` is limb `i`'s NTT context.
    ///
    /// # Panics
    ///
    /// Panics unless the plane is in evaluation form with at least two
    /// limbs and one matching table per limb.
    pub fn rescale_ntt_assign(&mut self, tables: &[&NttContext]) {
        assert_eq!(
            self.form,
            Form::Eval,
            "rescale_ntt requires evaluation form"
        );
        let count = self.limb_count();
        assert!(count >= 2, "rescale needs at least two limbs");
        self.check_tables(tables);
        let mut last = self.split_off_limbs(count - 1);
        last.ntt_inverse(&tables[count - 1..]);
        let q_last = last.moduli[0];
        let half = q_last / 2;
        // The last limb shifted by h: [c_L + h]_{q_L}.
        let shifted: Vec<u64> = last
            .data
            .iter()
            .map(|&c| add_mod(c, half, q_last))
            .collect();
        let moduli = &self.moduli;
        par_limbs(self.n, &mut self.data, |i, chunk| {
            let qi = moduli[i];
            let br = Barrett::new(qi);
            let half_i = half % qi;
            let mut shift: Vec<u64> = shifted
                .iter()
                .map(|&b| sub_mod(half_i, br.reduce_u128(b as u128), qi))
                .collect();
            tables[i].forward(&mut shift);
            simd::add_mod_slice(chunk, &shift, qi);
            let inv = inv_mod(q_last % qi, qi).expect("coprime moduli");
            simd::scale_shoup_slice(chunk, inv, shoup_precompute(inv, qi), qi);
        });
    }
}

/// One limb of a Galois automorphism, `src` into `dst`, in `form`.
fn automorph_limb(form: Form, src: &[u64], dst: &mut [u64], k: usize, q: u64) {
    match form {
        Form::Coeff => apply_coeff_slice(src, dst, k, q),
        Form::Eval => apply_eval_slice(src, dst, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q1: u64 = 97;
    const Q2: u64 = 193;

    fn sample() -> RnsPlane {
        RnsPlane::from_flat(vec![1, 2, 3, 4, 10, 20, 30, 40], &[Q1, Q2], Form::Coeff)
    }

    #[test]
    fn layout_is_limb_major() {
        let p = sample();
        assert_eq!(p.dim(), 4);
        assert_eq!(p.limb_count(), 2);
        assert_eq!(p.limb(0), &[1, 2, 3, 4]);
        assert_eq!(p.limb(1), &[10, 20, 30, 40]);
        assert_eq!(p.modulus(1), Q2);
    }

    #[test]
    fn from_signed_reduces_per_limb() {
        let p = RnsPlane::from_signed(&[-1, 0, 5], &[Q1, Q2]);
        assert_eq!(p.limb(0), &[Q1 - 1, 0, 5]);
        assert_eq!(p.limb(1), &[Q2 - 1, 0, 5]);
    }

    #[test]
    fn elementwise_ops_match_poly_kernels() {
        let a = sample();
        let b = RnsPlane::from_flat(vec![96, 5, 7, 11, 100, 200, 0, 1], &[Q1, Q2], Form::Coeff);
        let mut s = a.clone();
        s.add_assign(&b);
        for i in 0..2 {
            let expect = a.limb_poly(i).add(&b.limb_poly(i));
            assert_eq!(s.limb(i), expect.coeffs(), "limb {i}");
        }
        let mut d = a.clone();
        d.sub_assign(&b);
        for i in 0..2 {
            let expect = a.limb_poly(i).sub(&b.limb_poly(i));
            assert_eq!(d.limb(i), expect.coeffs(), "limb {i}");
        }
        let mut neg = a.clone();
        neg.neg_assign();
        let mut back = neg;
        back.add_assign(&a);
        assert_eq!(back, RnsPlane::zero(4, &[Q1, Q2], Form::Coeff));
    }

    #[test]
    fn scale_limbs_applies_per_limb_scalars() {
        let a = sample();
        let mut s = a.clone();
        s.scale_limbs_assign(&[2, 3]);
        assert_eq!(s.limb(0), a.limb_poly(0).scale(2).coeffs());
        assert_eq!(s.limb(1), a.limb_poly(1).scale(3).coeffs());
    }

    #[test]
    fn add_signed_matches_from_signed_scale_add() {
        let a = sample();
        let signed = [-3i64, 0, 7, -100];
        let scalars = [5u64, 190];
        let mut fused = a.clone();
        fused.add_signed_assign(&signed, &scalars);
        let mut term = RnsPlane::from_signed(&signed, &[Q1, Q2]);
        term.scale_limbs_assign(&scalars);
        let mut expect = a;
        expect.add_assign(&term);
        assert_eq!(fused, expect);
    }

    #[test]
    fn prefix_and_truncate() {
        let a = sample();
        let p = a.prefix(1);
        assert_eq!(p.limb_count(), 1);
        assert_eq!(p.limb(0), a.limb(0));
        let mut t = a.clone();
        t.truncate_limbs(1);
        assert_eq!(t, p);
    }

    #[test]
    #[should_panic(expected = "evaluation form")]
    fn hadamard_rejects_coeff_form() {
        let a = sample();
        let mut b = a.clone();
        b.hadamard_assign(&a);
    }

    #[test]
    fn rescale_rounds_to_nearest() {
        // c = v·q_L + r with |r| < q_L/2 must rescale to exactly v:
        // flooring would give v - 1 for every negative r.
        let moduli = crate::prime::generate_ntt_primes(8, 30, 3);
        let q_last = moduli[2] as i64;
        let v: [i64; 8] = [0, 1, -1, 5, -7, 1000, -1000, 3];
        let r: [i64; 8] = [
            0,
            -1,
            1,
            q_last / 2 - 1,
            -(q_last / 2 - 1),
            -3,
            q_last / 3,
            -q_last / 3,
        ];
        let c: Vec<i64> = v.iter().zip(&r).map(|(&v, &r)| v * q_last + r).collect();
        let mut p = RnsPlane::from_signed(&c, &moduli);
        p.rescale_assign();
        assert_eq!(p, RnsPlane::from_signed(&v, &moduli[..2]));
    }

    #[test]
    fn rescale_ntt_matches_coefficient_rescale() {
        let n = 64;
        let moduli = crate::prime::generate_ntt_primes(n, 36, 4);
        let tables: Vec<NttContext> = moduli.iter().map(|&q| NttContext::new(n, q)).collect();
        let refs: Vec<&NttContext> = tables.iter().collect();
        let mut s = 0x5ca1eu64;
        let data: Vec<u64> = moduli
            .iter()
            .flat_map(|&q| {
                (0..n)
                    .map(|_| {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (s >> 11) % q
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let coeff = RnsPlane::from_flat_unchecked(data, &moduli, Form::Coeff);
        let mut oracle = coeff.clone();
        oracle.rescale_assign();
        oracle.ntt_forward(&refs[..3]);
        let mut eval = coeff;
        eval.ntt_forward(&refs);
        eval.rescale_ntt_assign(&refs);
        assert_eq!(eval, oracle);
    }

    #[test]
    fn split_off_limbs_keeps_the_head() {
        let mut a = sample();
        let tail = a.split_off_limbs(1);
        assert_eq!(a, sample().prefix(1));
        assert_eq!(tail.limb(0), sample().limb(1));
        assert_eq!(tail.moduli(), &[Q2]);
    }

    #[test]
    fn automorph_matches_automorph_assign_in_both_forms() {
        for form in [Form::Coeff, Form::Eval] {
            let data: Vec<u64> = (0..16).map(|i| i * 7 + 3).collect();
            let a = RnsPlane::from_flat(data, &[Q1, Q2], form);
            for k in [1, 3, 5, 15] {
                let mut want = a.clone();
                want.automorph_assign(k);
                assert_eq!(a.automorph(k), want, "{form:?} k={k}");
            }
        }
    }

    #[test]
    fn mac_limbs_folds_every_limb_into_one() {
        let moduli = [Q1, Q1, Q1];
        let a = RnsPlane::from_flat(
            vec![1, 2, 3, 4, 5, 6, 7, 8, 90, 91, 92, 93],
            &moduli,
            Form::Eval,
        );
        let b = RnsPlane::from_flat(
            vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 50, 60, 70],
            &moduli,
            Form::Eval,
        );
        let mut acc = RnsPlane::from_flat(vec![1, 1, 1, 1], &[Q1], Form::Eval);
        let mut expect = acc.limb_poly(0);
        acc.mac_limbs_assign(&a, &b);
        for l in 0..3 {
            expect.mac_assign(&a.limb_poly(l), &b.limb_poly(l));
        }
        assert_eq!(acc.limb(0), expect.coeffs());
    }

    #[test]
    fn mac_matches_hadamard_plus_add() {
        let n = 4;
        let moduli = [Q1, Q2];
        let a = RnsPlane::from_flat(vec![3, 5, 7, 9, 11, 13, 17, 19], &moduli, Form::Eval);
        let b = RnsPlane::from_flat(vec![2, 4, 6, 8, 10, 12, 14, 16], &moduli, Form::Eval);
        let mut acc = RnsPlane::zero(n, &moduli, Form::Eval);
        acc.mac_assign(&a, &b);
        let mut expect = a.clone();
        expect.hadamard_assign(&b);
        assert_eq!(acc, expect);
    }
}
