//! Dense polynomials over `Z_q`, the data type flowing through every
//! UFC primitive (Table I of the paper: RLWE polynomials in coefficient
//! or evaluation form).

use crate::modops::{add_mod, from_signed, mul_mod, neg_mod, shoup_precompute, sub_mod, Barrett};

/// Which basis a polynomial's limb data is expressed in.
///
/// UFC's compiler tracks this per polynomial because NTT/iNTT macro-ops
/// convert between the two and element-wise ops require matching forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// Coefficient (original) form.
    Coeff,
    /// Evaluation (NTT) form.
    Eval,
}

/// A dense polynomial with coefficients in `Z_q`.
///
/// The degree bound (ring dimension) is implied by the coefficient
/// vector's length; all arithmetic requires both operands to share the
/// same modulus and length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u64>,
    modulus: u64,
}

impl Poly {
    /// Creates the zero polynomial of dimension `n`.
    pub fn zero(n: usize, modulus: u64) -> Self {
        Self {
            coeffs: vec![0; n],
            modulus,
        }
    }

    /// Wraps a coefficient vector. Coefficients are reduced mod `q`.
    pub fn from_coeffs(mut coeffs: Vec<u64>, modulus: u64) -> Self {
        for c in &mut coeffs {
            *c %= modulus;
        }
        Self { coeffs, modulus }
    }

    /// Wraps a coefficient vector that is **already reduced** mod `q`.
    ///
    /// Skips the re-reduction pass of [`Self::from_coeffs`]; the
    /// invariant is checked in debug builds only. Use this on the
    /// output of kernels that guarantee reduced results (NTT, Barrett
    /// hadamard, …) so hot paths stop paying a `%` per coefficient.
    pub fn from_coeffs_unchecked(coeffs: Vec<u64>, modulus: u64) -> Self {
        debug_assert!(
            coeffs.iter().all(|&c| c < modulus),
            "from_coeffs_unchecked requires reduced coefficients"
        );
        Self { coeffs, modulus }
    }

    /// Builds a polynomial from signed (centered) coefficients.
    pub fn from_signed(signed: &[i64], modulus: u64) -> Self {
        Self {
            coeffs: signed.iter().map(|&v| from_signed(v, modulus)).collect(),
            modulus,
        }
    }

    /// A deterministic pseudorandom polynomial (splitmix64 stream):
    /// the same `(n, modulus, seed)` always yields the same
    /// coefficients, on every platform. Used by the cross-kernel
    /// conformance suite and the bench harness, where reproducible
    /// inputs matter more than cryptographic quality.
    pub fn pseudorandom(n: usize, modulus: u64, seed: u64) -> Self {
        let mut state = seed;
        let coeffs = (0..n)
            .map(|_| {
                // splitmix64 step.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % modulus
            })
            .collect();
        Self { coeffs, modulus }
    }

    /// The monomial `c * X^k` in dimension `n` (with negacyclic wrap:
    /// `k` may be any value below `2n`, where `X^n = -1`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= 2n`.
    pub fn monomial(c: u64, k: usize, n: usize, modulus: u64) -> Self {
        assert!(k < 2 * n, "monomial exponent must be below 2N");
        let mut p = Self::zero(n, modulus);
        if k < n {
            p.coeffs[k] = c % modulus;
        } else {
            p.coeffs[k - n] = neg_mod(c % modulus, modulus);
        }
        p
    }

    /// The ring dimension (number of coefficients).
    #[inline]
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Read-only view of the coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Consumes the polynomial, returning its coefficient vector.
    pub fn into_coeffs(self) -> Vec<u64> {
        self.coeffs
    }

    /// Element-wise sum. Works in either form (both operands must match).
    ///
    /// # Panics
    ///
    /// Panics on mismatched dimension or modulus.
    pub fn add(&self, rhs: &Self) -> Self {
        self.check_compat(rhs);
        let coeffs = self
            .coeffs
            .iter()
            .zip(&rhs.coeffs)
            .map(|(&a, &b)| add_mod(a, b, self.modulus))
            .collect();
        Self {
            coeffs,
            modulus: self.modulus,
        }
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Self) -> Self {
        self.check_compat(rhs);
        let coeffs = self
            .coeffs
            .iter()
            .zip(&rhs.coeffs)
            .map(|(&a, &b)| sub_mod(a, b, self.modulus))
            .collect();
        Self {
            coeffs,
            modulus: self.modulus,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Self {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| neg_mod(a, self.modulus))
                .collect(),
            modulus: self.modulus,
        }
    }

    /// Element-wise (Hadamard) product — the EWMM primitive. Only
    /// meaningful when both polynomials are in evaluation form.
    pub fn hadamard(&self, rhs: &Self) -> Self {
        self.check_compat(rhs);
        let br = Barrett::new(self.modulus);
        let coeffs = self
            .coeffs
            .iter()
            .zip(&rhs.coeffs)
            .map(|(&a, &b)| br.mul(a, b))
            .collect();
        Self {
            coeffs,
            modulus: self.modulus,
        }
    }

    /// Multiplies every coefficient by a scalar (Shoup multiply: the
    /// scalar is a loop constant).
    pub fn scale(&self, s: u64) -> Self {
        let s = s % self.modulus;
        let s_shoup = shoup_precompute(s, self.modulus);
        Self {
            coeffs: self
                .coeffs
                .iter()
                .map(|&a| crate::modops::mul_shoup(a, s, s_shoup, self.modulus))
                .collect(),
            modulus: self.modulus,
        }
    }

    /// Multiply-accumulate: `self ← self + a ∘ b` (Barrett). The MAC
    /// kernel of key-switch inner products and external products.
    pub fn mac_assign(&mut self, a: &Self, b: &Self) {
        self.check_compat(a);
        self.check_compat(b);
        let br = Barrett::new(self.modulus);
        for ((acc, &x), &y) in self.coeffs.iter_mut().zip(&a.coeffs).zip(&b.coeffs) {
            *acc = add_mod(*acc, br.mul(x, y), self.modulus);
        }
    }

    /// Schoolbook negacyclic multiplication in `Z_q[X]/(X^N + 1)`.
    ///
    /// Quadratic-time reference used to validate the NTT-based path.
    pub fn negacyclic_mul_schoolbook(&self, rhs: &Self) -> Self {
        self.check_compat(rhs);
        let n = self.dim();
        let q = self.modulus;
        let mut out = vec![0u64; n];
        for i in 0..n {
            if self.coeffs[i] == 0 {
                continue;
            }
            for j in 0..n {
                let prod = mul_mod(self.coeffs[i], rhs.coeffs[j], q);
                let k = i + j;
                if k < n {
                    out[k] = add_mod(out[k], prod, q);
                } else {
                    out[k - n] = sub_mod(out[k - n], prod, q);
                }
            }
        }
        Self {
            coeffs: out,
            modulus: q,
        }
    }

    /// Rotates coefficients: multiplies by the monomial `X^k` in the
    /// negacyclic ring (`k < 2N`; `X^N = -1`). This is TFHE's `Rotate`
    /// primitive (Table I).
    pub fn rotate_monomial(&self, k: usize) -> Self {
        let n = self.dim();
        let k = k % (2 * n);
        let q = self.modulus;
        let mut out = vec![0u64; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            let mut pos = i + k;
            let mut v = c;
            if pos >= 2 * n {
                pos -= 2 * n;
            }
            if pos >= n {
                pos -= n;
                v = neg_mod(v, q);
            }
            out[pos] = v;
        }
        Self {
            coeffs: out,
            modulus: q,
        }
    }

    fn check_compat(&self, rhs: &Self) {
        assert_eq!(self.dim(), rhs.dim(), "polynomial dimension mismatch");
        assert_eq!(self.modulus, rhs.modulus, "polynomial modulus mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = 97;

    #[test]
    fn add_sub_inverse() {
        let a = Poly::from_coeffs(vec![1, 2, 3, 4], Q);
        let b = Poly::from_coeffs(vec![96, 95, 94, 93], Q);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), Poly::zero(4, Q));
    }

    #[test]
    fn monomial_wraps_negacyclically() {
        // X^5 in dimension 4 is -X.
        let m = Poly::monomial(1, 5, 4, Q);
        assert_eq!(m.coeffs(), &[0, Q - 1, 0, 0]);
        // X^3 stays put.
        let m = Poly::monomial(2, 3, 4, Q);
        assert_eq!(m.coeffs(), &[0, 0, 0, 2]);
    }

    #[test]
    fn schoolbook_mul_known_case() {
        // (1 + X) * (1 + X) = 1 + 2X + X^2 in Z_97[X]/(X^4+1).
        let a = Poly::from_coeffs(vec![1, 1, 0, 0], Q);
        let c = a.negacyclic_mul_schoolbook(&a);
        assert_eq!(c.coeffs(), &[1, 2, 1, 0]);
    }

    #[test]
    fn schoolbook_mul_wraps_sign() {
        // X^2 * X^3 = X^5 = -X in dimension 4.
        let a = Poly::monomial(1, 2, 4, Q);
        let b = Poly::monomial(1, 3, 4, Q);
        let c = a.negacyclic_mul_schoolbook(&b);
        assert_eq!(c.coeffs(), &[0, Q - 1, 0, 0]);
    }

    #[test]
    fn rotate_matches_monomial_mul() {
        let a = Poly::from_coeffs(vec![1, 2, 3, 4, 5, 6, 7, 8], Q);
        for k in 0..16 {
            let rotated = a.rotate_monomial(k);
            let via_mul = a.negacyclic_mul_schoolbook(&Poly::monomial(1, k % 16, 8, Q));
            assert_eq!(rotated, via_mul, "k = {k}");
        }
    }

    #[test]
    fn unchecked_constructor_matches_checked_on_reduced_input() {
        let coeffs = vec![0u64, 1, 95, 96];
        assert_eq!(
            Poly::from_coeffs_unchecked(coeffs.clone(), Q),
            Poly::from_coeffs(coeffs, Q)
        );
    }

    #[test]
    fn from_signed_centered() {
        let p = Poly::from_signed(&[-1, 0, 1, -48], Q);
        assert_eq!(p.coeffs(), &[96, 0, 1, 49]);
    }
}
