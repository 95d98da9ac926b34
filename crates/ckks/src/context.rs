//! The CKKS context: ring dimension, RNS moduli chain, NTT tables and
//! all precomputed constants for hybrid key-switching.

use std::sync::Arc;
use ufc_math::modops::{inv_mod, mul_mod};
use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::plane::RnsPlane;
use ufc_math::poly::Form;
use ufc_math::prime::generate_ntt_primes;
use ufc_math::rns::{BaseConverter, RnsBasis};

/// Precomputation for one key-switching digit (a group of consecutive
/// `Q` limbs).
#[derive(Debug, Clone)]
pub struct DigitTables {
    /// Indices into the `Q` limb list covered by this digit.
    pub limb_range: (usize, usize),
    /// `[Qhat_j^{-1}]_{q_i}` for each limb `i` in the digit, where
    /// `Qhat_j = Q / Q_j` over the limbs active at key-switch time.
    /// Indexed by level then by in-digit limb position.
    pub qhat_inv: Vec<Vec<u64>>,
    /// Base converter from this digit's limbs to every other modulus
    /// (the complement of the digit within `Q ∪ P`), one per level.
    pub mod_up: Vec<Option<Arc<BaseConverter>>>,
}

/// Shared CKKS parameter environment.
///
/// Holds the `Q` moduli chain (one dropped per rescale), the special
/// `P` moduli for hybrid key-switching, NTT tables per modulus, and
/// the digit decomposition tables.
#[derive(Debug, Clone)]
pub struct CkksContext {
    n: usize,
    q_moduli: Vec<u64>,
    p_moduli: Vec<u64>,
    dnum: usize,
    scale: f64,
    ntt: Vec<Arc<NttContext>>, // aligned with q_moduli ++ p_moduli
    digits: Vec<DigitTables>,
    /// BConv from `P` to each `Q` limb (ModDown), per level.
    p_to_q: Vec<Arc<BaseConverter>>,
    /// `[P^{-1}]_{q_i}` per Q limb.
    p_inv_mod_q: Vec<u64>,
    /// `[P]_{q_i}` per Q limb.
    p_mod_q: Vec<u64>,
}

impl CkksContext {
    /// Creates a context with `q_limbs` ciphertext moduli of
    /// `limb_bits` bits, `p_limbs` special moduli, `dnum` key-switch
    /// digits and encoding scale `2^scale_bits`.
    ///
    /// # Panics
    ///
    /// Panics if prime generation cannot find enough distinct
    /// NTT-friendly primes, or `dnum` does not evenly cover the limbs
    /// with digits of at most `p_limbs` size.
    pub fn new(
        n: usize,
        q_limbs: usize,
        p_limbs: usize,
        dnum: usize,
        limb_bits: u32,
        scale_bits: u32,
    ) -> Self {
        let total = q_limbs + p_limbs;
        let primes = generate_ntt_primes(n, limb_bits, total);
        assert_eq!(
            primes.len(),
            total,
            "not enough {limb_bits}-bit NTT primes for N={n}"
        );
        let q_moduli = primes[..q_limbs].to_vec();
        let p_moduli = primes[q_limbs..].to_vec();
        let digit_size = q_limbs.div_ceil(dnum);
        assert!(
            digit_size <= p_limbs,
            "special modulus P must cover the largest digit \
             (digit_size {digit_size} > p_limbs {p_limbs})"
        );
        let ntt: Vec<Arc<NttContext>> = q_moduli
            .iter()
            .chain(&p_moduli)
            .map(|&q| {
                // Generated primes satisfy try_new by construction;
                // route through it so parameter drift surfaces the
                // typed NttError instead of an inversion panic.
                let t = NttContext::try_new(n, q)
                    .unwrap_or_else(|e| panic!("generated CKKS modulus rejected: {e}"));
                Arc::new(t)
            })
            .collect();

        let mut ctx = Self {
            n,
            q_moduli,
            p_moduli,
            dnum,
            scale: 2f64.powi(scale_bits as i32),
            ntt,
            digits: Vec::new(),
            p_to_q: Vec::new(),
            p_inv_mod_q: Vec::new(),
            p_mod_q: Vec::new(),
        };
        ctx.precompute();
        ctx
    }

    fn precompute(&mut self) {
        let q_limbs = self.q_moduli.len();
        let digit_size = q_limbs.div_ceil(self.dnum);
        // Per-digit tables, per level (level = active limbs - 1).
        let mut digits = Vec::new();
        for d in 0..self.dnum {
            let lo = d * digit_size;
            let hi = (lo + digit_size).min(q_limbs);
            if lo >= hi {
                break;
            }
            let mut qhat_inv_per_level = Vec::with_capacity(q_limbs);
            let mut mod_up_per_level = Vec::with_capacity(q_limbs);
            for level in 0..q_limbs {
                let active = level + 1;
                if lo >= active {
                    qhat_inv_per_level.push(Vec::new());
                    mod_up_per_level.push(None);
                    continue;
                }
                let hi_l = hi.min(active);
                // Digit moduli at this level.
                let digit_mods: Vec<u64> = self.q_moduli[lo..hi_l].to_vec();
                // Complement: other active Q limbs + all P limbs.
                let mut compl: Vec<u64> = Vec::new();
                compl.extend_from_slice(&self.q_moduli[..lo]);
                compl.extend_from_slice(&self.q_moduli[hi_l..active]);
                compl.extend_from_slice(&self.p_moduli);
                // Qhat_j = prod of active Q limbs outside the digit.
                let qhat_inv: Vec<u64> = digit_mods
                    .iter()
                    .map(|&qi| {
                        let mut prod = 1u64;
                        for &m in self.q_moduli[..active].iter() {
                            if !digit_mods.contains(&m) {
                                prod = mul_mod(prod, m % qi, qi);
                            }
                        }
                        inv_mod(prod, qi).expect("moduli coprime")
                    })
                    .collect();
                let basis = RnsBasis::new(digit_mods);
                mod_up_per_level.push(Some(Arc::new(BaseConverter::new(&basis, &compl))));
                qhat_inv_per_level.push(qhat_inv);
            }
            digits.push(DigitTables {
                limb_range: (lo, hi),
                qhat_inv: qhat_inv_per_level,
                mod_up: mod_up_per_level,
            });
        }
        self.digits = digits;

        // ModDown tables.
        let p_basis = RnsBasis::new(self.p_moduli.clone());
        self.p_to_q = (0..q_limbs)
            .map(|level| {
                let active = &self.q_moduli[..level + 1];
                Arc::new(BaseConverter::new(&p_basis, active))
            })
            .collect();
        self.p_mod_q = self
            .q_moduli
            .iter()
            .map(|&q| {
                self.p_moduli
                    .iter()
                    .fold(1u64, |acc, &p| mul_mod(acc, p % q, q))
            })
            .collect();
        self.p_inv_mod_q = self
            .p_mod_q
            .iter()
            .zip(&self.q_moduli)
            .map(|(&pm, &q)| inv_mod(pm, q).expect("P invertible mod q"))
            .collect();
    }

    /// Ring dimension `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of packing slots (`N/2`).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// The ciphertext moduli chain `q_0 … q_L`.
    pub fn q_moduli(&self) -> &[u64] {
        &self.q_moduli
    }

    /// The special moduli `p_0 … p_{K-1}`.
    pub fn p_moduli(&self) -> &[u64] {
        &self.p_moduli
    }

    /// Maximum level (fresh ciphertexts start here).
    pub fn max_level(&self) -> usize {
        self.q_moduli.len() - 1
    }

    /// Number of key-switching digits.
    pub fn dnum(&self) -> usize {
        self.dnum
    }

    /// Default encoding scale Δ.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// NTT tables for `Q` limb `i`.
    pub fn ntt_q(&self, i: usize) -> &NttContext {
        &self.ntt[i]
    }

    /// NTT tables for an arbitrary modulus in the chain.
    ///
    /// # Panics
    ///
    /// Panics if `m` is neither a Q nor a P modulus.
    pub fn ntt_for_modulus(&self, m: u64) -> &NttContext {
        let idx = self
            .q_moduli
            .iter()
            .chain(&self.p_moduli)
            .position(|&q| q == m)
            .expect("modulus not in chain");
        &self.ntt[idx]
    }

    /// NTT tables for an arbitrary list of chain moduli, in order —
    /// the shape [`ufc_math::plane::RnsPlane`]'s in-place transforms
    /// consume.
    ///
    /// # Panics
    ///
    /// Panics if any modulus is neither a Q nor a P modulus.
    pub fn ntt_tables(&self, moduli: &[u64]) -> Vec<&NttContext> {
        moduli.iter().map(|&m| self.ntt_for_modulus(m)).collect()
    }

    /// Converts `p` to evaluation form in place through the tables of
    /// its limb moduli (a no-op if it is already there).
    ///
    /// # Panics
    ///
    /// Panics if any limb modulus is neither a Q nor a P modulus.
    pub fn to_eval(&self, p: &mut RnsPlane) {
        if p.form() == Form::Coeff {
            p.ntt_forward(&self.ntt_tables(p.moduli()));
        }
    }

    /// Converts `p` to coefficient form in place (a no-op if it is
    /// already there).
    ///
    /// # Panics
    ///
    /// Panics if any limb modulus is neither a Q nor a P modulus.
    pub fn to_coeff(&self, p: &mut RnsPlane) {
        if p.form() == Form::Eval {
            p.ntt_inverse(&self.ntt_tables(p.moduli()));
        }
    }

    /// The integer polynomial with centered coefficients `signed` over
    /// the first `count` Q limbs, in evaluation form.
    pub fn eval_from_signed(&self, signed: &[i64], count: usize) -> RnsPlane {
        let mut p = RnsPlane::from_signed(signed, &self.q_moduli[..count]);
        self.to_eval(&mut p);
        p
    }

    /// Forces a specific NTT kernel on every table in the chain
    /// (`Q` and `P` limbs alike). All kernels are bit-identical, so
    /// this changes scheduling only; it exists for the cross-kernel
    /// conformance/precision suites and A/B timing.
    ///
    /// Fails with [`ufc_math::ntt::NttError::IfmaPrimeTooWide`] —
    /// without touching any table — when `kernel` is
    /// [`NttKernel::Ifma`] and some chain modulus is at or above
    /// 2⁵⁰: CKKS chains routinely carry ~60-bit limbs, which the
    /// 52-bit product window cannot represent.
    pub fn try_set_ntt_kernel(&mut self, kernel: NttKernel) -> Result<(), ufc_math::ntt::NttError> {
        // Validate the whole chain before mutating so a failure does
        // not leave the tables half-switched.
        for table in &self.ntt {
            if !kernel.supports_modulus(table.modulus()) {
                return Err(ufc_math::ntt::NttError::IfmaPrimeTooWide { q: table.modulus() });
            }
        }
        for table in &mut self.ntt {
            Arc::make_mut(table)
                .try_set_kernel(kernel)
                .expect("chain-wide width check already passed");
        }
        Ok(())
    }

    /// Builder-style [`Self::try_set_ntt_kernel`], for tests and
    /// benches whose moduli are known to fit the requested generation.
    ///
    /// # Panics
    ///
    /// Panics when some chain modulus is too wide for `kernel`.
    #[must_use]
    pub fn with_ntt_kernel(mut self, kernel: NttKernel) -> Self {
        if let Err(e) = self.try_set_ntt_kernel(kernel) {
            panic!("with_ntt_kernel: {e}");
        }
        self
    }

    /// Digit tables for hybrid key-switching.
    pub fn digits(&self) -> &[DigitTables] {
        &self.digits
    }

    /// Digits active at `level` (those whose range intersects the
    /// active limbs).
    pub fn active_digits(&self, level: usize) -> usize {
        self.digits
            .iter()
            .filter(|d| d.limb_range.0 <= level)
            .count()
    }

    /// ModDown converter for the given level.
    pub fn p_to_q_converter(&self, level: usize) -> &BaseConverter {
        &self.p_to_q[level]
    }

    /// `[P]_{q_i}`.
    pub fn p_mod_q(&self, i: usize) -> u64 {
        self.p_mod_q[i]
    }

    /// `[P^{-1}]_{q_i}`.
    pub fn p_inv_mod_q(&self, i: usize) -> u64 {
        self.p_inv_mod_q[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CkksContext {
        CkksContext::new(32, 4, 2, 2, 36, 26)
    }

    #[test]
    fn construction_and_accessors() {
        let c = small();
        assert_eq!(c.n(), 32);
        assert_eq!(c.slots(), 16);
        assert_eq!(c.q_moduli().len(), 4);
        assert_eq!(c.p_moduli().len(), 2);
        assert_eq!(c.max_level(), 3);
        assert_eq!(c.dnum(), 2);
        assert_eq!(c.digits().len(), 2);
    }

    #[test]
    fn moduli_are_distinct_ntt_primes() {
        let c = small();
        let mut all: Vec<u64> = c.q_moduli().to_vec();
        all.extend_from_slice(c.p_moduli());
        for &q in &all {
            assert!(ufc_math::prime::is_prime(q));
            assert_eq!(q % 64, 1, "q ≡ 1 mod 2N");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn digit_ranges_partition_q() {
        let c = CkksContext::new(32, 6, 2, 3, 36, 26);
        let ranges: Vec<(usize, usize)> = c.digits().iter().map(|d| d.limb_range).collect();
        assert_eq!(ranges, vec![(0, 2), (2, 4), (4, 6)]);
    }

    #[test]
    fn active_digits_shrinks_with_level() {
        let c = CkksContext::new(32, 6, 2, 3, 36, 26);
        assert_eq!(c.active_digits(5), 3);
        assert_eq!(c.active_digits(3), 2);
        assert_eq!(c.active_digits(1), 1);
    }

    #[test]
    #[should_panic(expected = "special modulus")]
    fn p_must_cover_digit() {
        // 6 limbs, dnum 2 -> digit size 3 > p_limbs 2.
        let _ = CkksContext::new(32, 6, 2, 2, 36, 26);
    }

    #[test]
    fn form_conversions_roundtrip_and_are_idempotent() {
        let c = small();
        let signed: Vec<i64> = (0..32).map(|i| i * 3 - 40).collect();
        let coeff = RnsPlane::from_signed(&signed, &c.q_moduli()[..3]);
        let mut p = c.eval_from_signed(&signed, 3);
        assert_eq!(p.form(), Form::Eval);
        let eval = p.clone();
        c.to_eval(&mut p);
        assert_eq!(p, eval, "to_eval on an evaluation-form plane is a no-op");
        c.to_coeff(&mut p);
        assert_eq!(p, coeff);
        c.to_coeff(&mut p);
        assert_eq!(p, coeff, "to_coeff on a coefficient-form plane is a no-op");
    }

    #[test]
    fn p_constants_are_inverses() {
        let c = small();
        for i in 0..c.q_moduli().len() {
            let q = c.q_moduli()[i];
            assert_eq!(mul_mod(c.p_mod_q(i), c.p_inv_mod_q(i), q), 1);
        }
    }
}
