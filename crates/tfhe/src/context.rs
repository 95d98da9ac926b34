//! TFHE parameter context.

use std::sync::Arc;
use ufc_math::gadget::Gadget;
use ufc_math::ntt::{NttContext, NttKernel};
use ufc_math::prime::generate_ntt_prime;

/// Shared TFHE parameter environment.
///
/// UFC's formulation uses a 32-bit NTT-friendly prime modulus for both
/// LWE and RLWE ciphertexts (paper §VII-D); Strix's power-of-two/FFT
/// formulation is modelled separately in the simulator.
#[derive(Debug, Clone)]
pub struct TfheContext {
    /// Ciphertext modulus (NTT-friendly prime, ≈ 2^31).
    q: u64,
    /// LWE dimension `n`.
    lwe_dim: usize,
    /// RLWE ring dimension `N`.
    ring_dim: usize,
    /// NTT tables for the RLWE ring.
    ntt: Arc<NttContext>,
    /// RGSW / external-product gadget.
    gadget: Gadget,
    /// Key-switching gadget (base `B_ks`, `d_ks` levels).
    ks_gadget: Gadget,
    /// Noise standard deviation for fresh encryptions.
    sigma: f64,
}

impl TfheContext {
    /// Builds a context.
    ///
    /// # Panics
    ///
    /// Panics if no 31-bit NTT prime exists for `ring_dim` (never for
    /// power-of-two dims ≤ 2^14) or the gadget budgets exceed 64 bits.
    pub fn new(
        lwe_dim: usize,
        ring_dim: usize,
        glwe_log_base: u32,
        glwe_levels: usize,
        ks_log_base: u32,
        ks_levels: usize,
    ) -> Self {
        let q = generate_ntt_prime(ring_dim, 31).expect("31-bit NTT prime");
        // The generated prime satisfies try_new's checks by
        // construction; route through it anyway so any future
        // parameter drift panics with the typed NttError message.
        let ntt = NttContext::try_new(ring_dim, q)
            .unwrap_or_else(|e| panic!("generated TFHE modulus rejected: {e}"));
        Self {
            q,
            lwe_dim,
            ring_dim,
            ntt: Arc::new(ntt),
            gadget: Gadget::new(q, glwe_log_base, glwe_levels),
            ks_gadget: Gadget::new(q, ks_log_base, ks_levels),
            sigma: 3.2,
        }
    }

    /// Builds the context for one of the paper's T1–T4 sets.
    ///
    /// # Panics
    ///
    /// Panics when the set cannot be instantiated (see
    /// [`Self::try_from_params`] for the fallible form).
    pub fn from_params(p: &ufc_isa::params::TfheParams) -> Self {
        Self::try_from_params(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::from_params`]: failures to find an NTT prime
    /// or to build NTT tables surface as
    /// [`ufc_isa::params::ParamsError::InvalidNtt`] instead of a panic
    /// deep inside table construction.
    ///
    /// # Errors
    ///
    /// [`ufc_isa::params::ParamsError`] naming the set and the reason.
    pub fn try_from_params(
        p: &ufc_isa::params::TfheParams,
    ) -> Result<Self, ufc_isa::params::ParamsError> {
        let ring_dim = p.n();
        let invalid = |detail: String| ufc_isa::params::ParamsError::InvalidNtt {
            id: p.id.to_string(),
            detail,
        };
        let q = generate_ntt_prime(ring_dim, 31)
            .ok_or_else(|| invalid(format!("no 31-bit NTT prime for ring dimension {ring_dim}")))?;
        let ntt = NttContext::try_new(ring_dim, q).map_err(|e| invalid(e.to_string()))?;
        Ok(Self {
            q,
            lwe_dim: p.lwe_dim as usize,
            ring_dim,
            ntt: Arc::new(ntt),
            gadget: Gadget::new(q, p.glwe_log_base, p.glwe_levels as usize),
            ks_gadget: Gadget::new(q, p.ks_log_base, p.ks_levels as usize),
            sigma: 3.2,
        })
    }

    /// Ciphertext modulus.
    pub fn q(&self) -> u64 {
        self.q
    }

    /// LWE dimension `n`.
    pub fn lwe_dim(&self) -> usize {
        self.lwe_dim
    }

    /// RLWE ring dimension `N`.
    pub fn ring_dim(&self) -> usize {
        self.ring_dim
    }

    /// NTT tables.
    pub fn ntt(&self) -> &NttContext {
        &self.ntt
    }

    /// The NTT kernel the RLWE tables dispatch to.
    pub fn ntt_kernel(&self) -> NttKernel {
        self.ntt.kernel()
    }

    /// Forces a specific NTT kernel on the RLWE tables. All kernels
    /// are bit-identical, so this changes scheduling only; it exists
    /// for the cross-kernel conformance suite and A/B timing.
    ///
    /// Fails with [`ufc_math::ntt::NttError::IfmaPrimeTooWide`] when
    /// `kernel` cannot run over the RLWE modulus — moot for the
    /// default 31-bit TFHE primes, which every generation supports,
    /// but kept typed so callers probing custom parameter sets get an
    /// error instead of an abort.
    pub fn try_set_ntt_kernel(&mut self, kernel: NttKernel) -> Result<(), ufc_math::ntt::NttError> {
        Arc::make_mut(&mut self.ntt).try_set_kernel(kernel)
    }

    /// Builder-style [`Self::try_set_ntt_kernel`].
    ///
    /// # Panics
    ///
    /// Panics when the RLWE modulus is too wide for `kernel`.
    #[must_use]
    pub fn with_ntt_kernel(mut self, kernel: NttKernel) -> Self {
        if let Err(e) = self.try_set_ntt_kernel(kernel) {
            panic!("with_ntt_kernel: {e}");
        }
        self
    }

    /// RGSW gadget.
    pub fn gadget(&self) -> &Gadget {
        &self.gadget
    }

    /// Key-switching gadget.
    pub fn ks_gadget(&self) -> &Gadget {
        &self.ks_gadget
    }

    /// Fresh-encryption noise σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Encodes a message `m` out of `space` values onto the torus:
    /// `round(m · q / space)`.
    pub fn encode(&self, m: u64, space: u64) -> u64 {
        ((m as u128 * self.q as u128 + space as u128 / 2) / space as u128) as u64 % self.q
    }

    /// Decodes a phase back to the nearest message in `space`.
    pub fn decode(&self, phase: u64, space: u64) -> u64 {
        (((phase as u128 * space as u128 + self.q as u128 / 2) / self.q as u128) % space as u128)
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_from_table_iii() {
        let t1 = ufc_isa::params::tfhe_params("T1").unwrap();
        let ctx = TfheContext::from_params(&t1);
        assert_eq!(ctx.lwe_dim(), 500);
        assert_eq!(ctx.ring_dim(), 1024);
        assert_eq!(ctx.q() % (2 * 1024), 1);
    }

    #[test]
    fn try_from_params_reports_typed_error() {
        // log_n = 30 leaves no room for a 31-bit prime ≡ 1 mod 2^31,
        // so prime generation fails before any table is allocated.
        let bogus = ufc_isa::params::TfheParams {
            id: "T9",
            lwe_dim: 500,
            log_n: 30,
            glwe_levels: 2,
            glwe_log_base: 10,
            ks_levels: 3,
            ks_log_base: 6,
        };
        let err = TfheContext::try_from_params(&bogus).unwrap_err();
        match &err {
            ufc_isa::params::ParamsError::InvalidNtt { id, detail } => {
                assert_eq!(id, "T9");
                assert!(detail.contains("NTT prime"), "{detail}");
            }
            other => panic!("expected InvalidNtt, got {other:?}"),
        }
        assert!(err.to_string().contains("T9"));
        // The paper's real sets all instantiate.
        let t1 = ufc_isa::params::tfhe_params("T1").unwrap();
        assert!(TfheContext::try_from_params(&t1).is_ok());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = TfheContext::new(16, 64, 7, 3, 4, 3);
        for space in [2u64, 4, 8, 16] {
            for m in 0..space {
                assert_eq!(
                    ctx.decode(ctx.encode(m, space), space),
                    m,
                    "m={m} space={space}"
                );
            }
        }
    }

    #[test]
    fn decode_tolerates_noise() {
        let ctx = TfheContext::new(16, 64, 7, 3, 4, 3);
        let enc = ctx.encode(3, 8);
        let noisy = (enc + ctx.q() / 64) % ctx.q();
        assert_eq!(ctx.decode(noisy, 8), 3);
        let noisy = (enc + ctx.q() - ctx.q() / 64) % ctx.q();
        assert_eq!(ctx.decode(noisy, 8), 3);
    }
}
