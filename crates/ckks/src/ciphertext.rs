//! CKKS ciphertexts: a pair of RNS polynomials plus level/scale
//! bookkeeping.

use ufc_math::plane::RnsPlane;

/// An RLWE ciphertext `(c0, c1)` with `c0 + c1·s ≈ Δ·m`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// Constant component (evaluation form).
    pub c0: RnsPlane,
    /// Linear component (evaluation form).
    pub c1: RnsPlane,
    /// Current level (index of the last active `Q` limb).
    pub level: usize,
    /// Current scale `Δ`.
    pub scale: f64,
}

impl Ciphertext {
    /// Wraps components.
    ///
    /// # Panics
    ///
    /// Panics if component limb counts disagree with `level`.
    pub fn new(c0: RnsPlane, c1: RnsPlane, level: usize, scale: f64) -> Self {
        assert_eq!(c0.limb_count(), level + 1, "c0 limb count != level+1");
        assert_eq!(c1.limb_count(), level + 1, "c1 limb count != level+1");
        Self {
            c0,
            c1,
            level,
            scale,
        }
    }

    /// Ring dimension.
    pub fn dim(&self) -> usize {
        self.c0.dim()
    }

    /// Number of active limbs.
    pub fn limb_count(&self) -> usize {
        self.level + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use ufc_math::poly::Form;

    #[test]
    fn construction_checks_limbs() {
        let ctx = CkksContext::new(32, 4, 2, 2, 36, 26);
        let a = RnsPlane::zero(ctx.n(), &ctx.q_moduli()[..3], Form::Eval);
        let b = RnsPlane::zero(ctx.n(), &ctx.q_moduli()[..3], Form::Eval);
        let ct = Ciphertext::new(a, b, 2, 1024.0);
        assert_eq!(ct.limb_count(), 3);
        assert_eq!(ct.dim(), 32);
    }

    #[test]
    #[should_panic(expected = "limb count")]
    fn mismatched_level_rejected() {
        let ctx = CkksContext::new(32, 4, 2, 2, 36, 26);
        let a = RnsPlane::zero(ctx.n(), &ctx.q_moduli()[..3], Form::Eval);
        let b = RnsPlane::zero(ctx.n(), &ctx.q_moduli()[..3], Form::Eval);
        let _ = Ciphertext::new(a, b, 3, 1024.0);
    }
}
