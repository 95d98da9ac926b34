//! Classical iterative radix-2 number-theoretic transform over
//! `Z_q[X]/(X^N + 1)`.
//!
//! This is the reference transform: natural-order in, natural-order
//! out, negacyclic via the `2N`-th root `ψ` (pre/post scaling). The
//! constant-geometry variant UFC's interconnect is designed around
//! lives in [`crate::cgntt`] and is validated against this one.
//!
//! # Kernel strategy
//!
//! The hot kernels use Shoup-precomputed twiddles with Harvey lazy
//! reduction: butterfly operands are kept as representatives below
//! `4q` (the twiddle multiply returns a value below `2q` for *any*
//! 64-bit input, see [`crate::modops::mul_shoup_lazy`]), and a single
//! correction pass at the end of the transform brings everything back
//! to `[0, q)`. This removes the 128-bit `%` division the seed
//! butterfly paid per multiply. The seed kernels are retained as
//! [`NttKernel::Reference`] so equivalence tests and the
//! `cargo xtask bench-math` harness can measure old vs. new on the
//! same tables. Where the host has AVX-512 IFMA, the whole transform
//! runs on 8-wide lanes: no pass over the array, not the twist, the
//! bit reversal nor the short-span stages, is left scalar, since a
//! scalar pass costs as much as several lane passes.
//!
//! # Kernel generations and dispatch
//!
//! Three kernel generations coexist, all bit-identical on reduced
//! inputs (pinned by `crates/math/tests/kernel_conformance.rs`):
//!
//! * [`NttKernel::Reference`] — the seed kernel: fully reduced
//!   butterflies, one 128-bit `%` per multiply. Kept as the oracle.
//! * [`NttKernel::Radix4`] — Shoup/Harvey lazy butterflies over
//!   stage-major twiddles, consecutive stages fused in pairs (two
//!   radix-2 layers sharing loads/stores, with a radix-2 tail stage
//!   when the stage count is odd). Above [`RADIX4_BLOCK`] the walk is
//!   **cache-blocked**: all stages whose butterfly span fits inside an
//!   L1-sized block run back to back on that block while it is
//!   resident, so the coefficient array crosses the cache hierarchy
//!   once for the whole intra-block phase instead of once per stage
//!   pair. Only the few cross-block stages still make full-array
//!   passes. At or below one block the schedule is the plain fused
//!   radix-2 walk.
//! * [`NttKernel::Ifma`] — the whole transform on the 8-wide AVX-512
//!   IFMA lane kernels (`vpmadd52lo/hi`), with twiddles carried as
//!   radix-2⁵² Shoup companions ([`crate::modops::shoup52_precompute`]).
//!   No pass over the array is scalar: one entry pass
//!   ([`simd::ntt_entry52`]) does the ψ pre-twist, the bit reversal
//!   and the three shortest stages on 8×8 register tiles, and every
//!   later stage pair runs with whole 8-lane quarters. It needs no
//!   table beyond the stage-major twiddles the other kernels share.
//!   Restricted to `q < 2^50` so every lazy value stays below the
//!   52-bit product window; SHARP's narrow-word argument (PAPERS.md)
//!   is the same trade. An always-compiled portable mirror evaluates
//!   the identical per-lane formulas, so IFMA legs are bit-identical
//!   whether or not the host has the hardware.
//!
//! Each [`NttContext`] takes its kernel from the one dispatch rule
//! [`NttKernel::auto_for`], which depends only on `q` and the host:
//! IFMA when the host has AVX-512 IFMA and the modulus is below 2⁵⁰,
//! radix-4 otherwise. `BENCH_math.json`'s `ntt_kernels` table shows
//! IFMA ahead of radix-4 at every measured ring, N = 2^8 to 2^14,
//! including TFHE's 31-bit q at N = 2^10 and CKKS's 36-bit q at
//! N = 2^13. Tests and benches choose a kernel
//! explicitly, per table via [`NttContext::try_set_kernel`] /
//! [`NttContext::with_kernel`] or per call via
//! [`NttContext::forward_with`] / [`NttContext::inverse_with`]. An
//! explicit [`NttKernel::Ifma`] runs the portable mirror lanes on
//! hosts without the hardware; a modulus at or above 2⁵⁰ is a typed
//! [`NttError::IfmaPrimeTooWide`], never a silent fallback.

use crate::modops::{
    add_mod, ifma_modulus_ok, inv_mod, mul_mod, mul_shoup_lazy, pow_mod, shoup52_precompute,
    shoup_precompute, sub_mod, Barrett, IFMA_MAX_MODULUS_BITS,
};
use crate::poly::Poly;
use crate::prime::{is_prime, primitive_root_of_unity};
use crate::simd;

/// Elements per cache block of the radix-4 schedule: `2^12` × 8 bytes
/// = 32 KiB, sized to a typical L1 data cache.
pub const RADIX4_BLOCK: usize = 1 << 12;

/// Which butterfly kernel a [`NttContext`] executes.
///
/// All kernels compute the same transform and produce bit-identical
/// reduced outputs; they differ in butterfly arithmetic (lazy vs fully
/// reduced) and memory schedule (cache-blocked vs stage-by-stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NttKernel {
    /// Seed kernel: fully reduced butterflies, 128-bit `%` per
    /// multiply. Kept as the oracle and measured baseline.
    Reference,
    /// Shoup/Harvey lazy butterflies in fused radix-4 groups with a
    /// radix-2 tail stage for odd stage counts, cache-blocked above
    /// [`RADIX4_BLOCK`].
    Radix4,
    /// Every pass of the transform on the 8-wide AVX-512 IFMA lane
    /// kernels (`vpmadd52lo/hi` with radix-2⁵² Shoup twiddles): a
    /// tiled entry pass for the twist, bit reversal and three shortest
    /// stages, then fused stage pairs. Requires `q < 2^50`; runs on a
    /// bit-identical portable mirror when the hardware is absent.
    Ifma,
}

impl NttKernel {
    /// Every kernel, in oracle-to-fastest order — the iteration set of
    /// the conformance suites.
    pub const ALL: [NttKernel; 3] = [NttKernel::Reference, NttKernel::Radix4, NttKernel::Ifma];

    /// The canonical lowercase name, as spans and bench reports print
    /// it.
    pub fn name(self) -> &'static str {
        match self {
            NttKernel::Reference => "reference",
            NttKernel::Radix4 => "radix4",
            NttKernel::Ifma => "ifma",
        }
    }

    /// Whether this kernel can run a transform over modulus `q` at
    /// all: every generation except [`NttKernel::Ifma`] accepts the
    /// full `[2, 2^62)` range; IFMA needs `q < 2^50` so lazy values
    /// fit the 52-bit product window. The conformance suites and the
    /// bench kernel table iterate `ALL.filter(supports_modulus)`.
    pub fn supports_modulus(self, q: u64) -> bool {
        self != NttKernel::Ifma || ifma_modulus_ok(q)
    }

    /// The dispatch rule: IFMA when the host has AVX-512 IFMA and the
    /// modulus fits its 50-bit ceiling, radix-4 everywhere else. The
    /// ring dimension does not enter it: the IFMA lanes win at every
    /// measured size (`BENCH_math.json`, `ntt_kernels` table). `_n`
    /// stays in the signature for its callers, which ask per
    /// transform shape.
    pub fn auto_for(_n: usize, q: u64) -> NttKernel {
        if ifma_modulus_ok(q) && simd::ifma_available() {
            NttKernel::Ifma
        } else {
            NttKernel::Radix4
        }
    }
}

/// Why a set of NTT parameters cannot back an [`NttContext`], from
/// [`NttContext::try_new`] / [`NttContext::try_with_psi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttError {
    /// The ring dimension is not a (nonzero) power of two.
    DimNotPowerOfTwo {
        /// The rejected dimension.
        n: usize,
    },
    /// The modulus is outside the supported range `[2, 2^62)`.
    ModulusOutOfRange {
        /// The rejected modulus.
        q: u64,
    },
    /// The modulus is composite, so roots of unity and inverses are
    /// not guaranteed to exist.
    ModulusNotPrime {
        /// The rejected modulus.
        q: u64,
    },
    /// `q ≢ 1 (mod 2n)`: the ring has no primitive 2n-th root of
    /// unity, so the negacyclic NTT does not exist.
    NotNttFriendly {
        /// The ring dimension.
        n: usize,
        /// The rejected modulus.
        q: u64,
    },
    /// The caller-supplied ψ is not a primitive 2N-th root of unity.
    PsiNotPrimitive {
        /// The rejected root.
        psi: u64,
        /// The modulus it was checked against.
        q: u64,
    },
    /// The IFMA kernel was requested (via
    /// [`NttContext::try_set_kernel`]) for a modulus at or above 2⁵⁰,
    /// where lazy values no longer fit the 52-bit product window.
    IfmaPrimeTooWide {
        /// The rejected modulus.
        q: u64,
    },
}

impl std::fmt::Display for NttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            NttError::DimNotPowerOfTwo { n } => {
                write!(f, "ring dimension {n} is not a power of two")
            }
            NttError::ModulusOutOfRange { q } => {
                write!(f, "modulus {q} is outside the supported range [2, 2^62)")
            }
            NttError::ModulusNotPrime { q } => write!(f, "modulus {q} is not prime"),
            NttError::NotNttFriendly { n, q } => write!(
                f,
                "modulus {q} is not NTT-friendly for dimension {n} (q must be 1 mod {})",
                2 * n
            ),
            NttError::PsiNotPrimitive { psi, q } => {
                write!(f, "{psi} is not a primitive 2N-th root of unity mod {q}")
            }
            NttError::IfmaPrimeTooWide { q } => write!(
                f,
                "modulus {q} is too wide for the IFMA kernel (requires q < 2^{IFMA_MAX_MODULUS_BITS})"
            ),
        }
    }
}

impl std::error::Error for NttError {}

impl std::fmt::Display for NttKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Precomputed tables for NTTs of a fixed `(N, q)` pair.
#[derive(Debug, Clone)]
pub struct NttContext {
    n: usize,
    q: u64,
    /// ψ: primitive 2N-th root of unity.
    psi: u64,
    /// ψ^i for i in 0..N (negacyclic pre-twist).
    psi_pows: Vec<u64>,
    /// Shoup companions of `psi_pows`.
    psi_shoup: Vec<u64>,
    /// Radix-2⁵² Shoup companions of `psi_pows` for the IFMA kernel —
    /// built eagerly iff `q < 2^50`, empty otherwise.
    psi_shoup52: Vec<u64>,
    /// ψ^{-i} for i in 0..N.
    psi_inv_pows: Vec<u64>,
    /// ω = ψ² powers: ω^i for i in 0..N.
    omega_pows: Vec<u64>,
    /// ω^{-i} for i in 0..N.
    omega_inv_pows: Vec<u64>,
    /// Stage-major twiddles for the lazy forward stages: the `half`
    /// twiddles of the stage with block length `2·half` start at
    /// offset `half − 1`, stored contiguously (`N − 1` entries total).
    /// The butterfly loop then streams them sequentially instead of
    /// striding through `omega_pows`.
    omega_stage: Vec<u64>,
    /// Shoup companions of `omega_stage`.
    omega_stage_shoup: Vec<u64>,
    /// Radix-2⁵² companions of `omega_stage` (IFMA; empty when
    /// `q ≥ 2^50`).
    omega_stage_shoup52: Vec<u64>,
    /// Stage-major twiddles for the lazy inverse stages.
    omega_inv_stage: Vec<u64>,
    /// Shoup companions of `omega_inv_stage`.
    omega_inv_stage_shoup: Vec<u64>,
    /// Radix-2⁵² companions of `omega_inv_stage` (IFMA).
    omega_inv_stage_shoup52: Vec<u64>,
    /// N^{-1} mod q.
    n_inv: u64,
    /// Fused post-twist ψ^{-i}·N^{-1} for the negacyclic inverse.
    psi_inv_n_pows: Vec<u64>,
    /// Shoup companions of `psi_inv_n_pows`.
    psi_inv_n_shoup: Vec<u64>,
    /// Radix-2⁵² companions of `psi_inv_n_pows` (IFMA).
    psi_inv_n_shoup52: Vec<u64>,
    /// Barrett reducer for the element-wise (hadamard) kernel.
    barrett: Barrett,
    /// Which butterfly kernel `forward`/`inverse` execute.
    kernel: NttKernel,
}

impl NttContext {
    /// Builds tables for ring dimension `n` (a power of two) and an
    /// NTT-friendly prime `q ≡ 1 mod 2n`.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are invalid, with the
    /// [`NttError`] as the message. Fallible callers (anything fed
    /// from user-supplied parameter sets) should use
    /// [`Self::try_new`] instead.
    pub fn new(n: usize, q: u64) -> Self {
        Self::try_new(n, q).unwrap_or_else(|e| panic!("invalid NTT parameters: {e}"))
    }

    /// Fallible [`Self::new`]: validates the parameter set — `n` a
    /// power of two, `q` a prime in `[2, 2^62)` with `q ≡ 1 mod 2n` —
    /// before any table construction, so bad parameters surface as
    /// typed errors instead of panics from inversion helpers deep in
    /// the build.
    ///
    /// # Errors
    ///
    /// The first failing [`NttError`] check, in the order listed
    /// above.
    pub fn try_new(n: usize, q: u64) -> Result<Self, NttError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(NttError::DimNotPowerOfTwo { n });
        }
        if !(2..1u64 << 62).contains(&q) {
            return Err(NttError::ModulusOutOfRange { q });
        }
        if !is_prime(q) {
            return Err(NttError::ModulusNotPrime { q });
        }
        if !(q - 1).is_multiple_of(2 * n as u64) {
            return Err(NttError::NotNttFriendly { n, q });
        }
        // Cannot fail past this point: q prime with 2n | q - 1
        // guarantees a primitive 2n-th root exists.
        let psi = primitive_root_of_unity(2 * n as u64, q);
        Self::try_with_psi(n, q, psi)
    }

    /// Builds tables using a caller-chosen 2N-th root `psi`.
    ///
    /// Used by the automorphism-via-NTT trick (§IV-C2), which swaps ψ
    /// for ψ^k to fold a Galois automorphism into the transform.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are invalid, with the
    /// [`NttError`] as the message (see [`Self::try_with_psi`]).
    pub fn with_psi(n: usize, q: u64, psi: u64) -> Self {
        Self::try_with_psi(n, q, psi).unwrap_or_else(|e| panic!("invalid NTT parameters: {e}"))
    }

    /// Fallible [`Self::with_psi`]. Validates dimension, modulus range
    /// and the primitivity of `psi` (`ψ^2N = 1`, `ψ^N = −1`); does
    /// *not* re-check primality, so the automorphism path can re-derive
    /// contexts from an already-validated modulus cheaply.
    ///
    /// The kernel is [`NttKernel::auto_for`]`(n, q)`.
    ///
    /// # Errors
    ///
    /// [`NttError`] describing the first failing check.
    pub fn try_with_psi(n: usize, q: u64, psi: u64) -> Result<Self, NttError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(NttError::DimNotPowerOfTwo { n });
        }
        if !(2..1u64 << 62).contains(&q) {
            return Err(NttError::ModulusOutOfRange { q });
        }
        if pow_mod(psi, 2 * n as u64, q) != 1 || pow_mod(psi, n as u64, q) != q.wrapping_sub(1) {
            return Err(NttError::PsiNotPrimitive { psi, q });
        }
        let mut psi_pows = Vec::with_capacity(n);
        let mut omega_pows = Vec::with_capacity(n);
        let omega = mul_mod(psi, psi, q);
        let mut p = 1u64;
        let mut w = 1u64;
        for _ in 0..n {
            psi_pows.push(p);
            omega_pows.push(w);
            p = mul_mod(p, psi, q);
            w = mul_mod(w, omega, q);
        }
        // ψ passed the primitivity check, so ψ (hence ω = ψ²) is a
        // unit; N can still collide with a composite modulus.
        let psi_inv = inv_mod(psi, q).ok_or(NttError::PsiNotPrimitive { psi, q })?;
        let omega_inv = inv_mod(omega, q).ok_or(NttError::PsiNotPrimitive { psi, q })?;
        let mut psi_inv_pows = Vec::with_capacity(n);
        let mut omega_inv_pows = Vec::with_capacity(n);
        let mut p = 1u64;
        let mut w = 1u64;
        for _ in 0..n {
            psi_inv_pows.push(p);
            omega_inv_pows.push(w);
            p = mul_mod(p, psi_inv, q);
            w = mul_mod(w, omega_inv, q);
        }
        // N is a power of two, so gcd(N, q) > 1 only for even q —
        // which is composite (q > 2 here since q ≥ 2 and ψ^N = −1
        // forces q > 2).
        let n_inv = inv_mod(n as u64, q).ok_or(NttError::ModulusNotPrime { q })?;
        let shoup_of =
            |v: &[u64]| -> Vec<u64> { v.iter().map(|&w| shoup_precompute(w, q)).collect() };
        let psi_shoup = shoup_of(&psi_pows);
        let stage_major = |pows: &[u64]| -> Vec<u64> {
            let mut t = Vec::with_capacity(n.saturating_sub(1));
            let mut len = 2;
            while len <= n {
                let step = n / len;
                for j in 0..len / 2 {
                    t.push(pows[j * step]);
                }
                len <<= 1;
            }
            t
        };
        let omega_stage = stage_major(&omega_pows);
        let omega_inv_stage = stage_major(&omega_inv_pows);
        let omega_stage_shoup = shoup_of(&omega_stage);
        let omega_inv_stage_shoup = shoup_of(&omega_inv_stage);
        let psi_inv_n_pows: Vec<u64> = psi_inv_pows.iter().map(|&p| mul_mod(p, n_inv, q)).collect();
        let psi_inv_n_shoup = shoup_of(&psi_inv_n_pows);
        // Radix-2⁵² companions whenever the modulus fits the IFMA
        // window, so `try_set_kernel(Ifma)` and `forward_with(Ifma)`
        // work without a rebuild; empty (and the kernel unreachable)
        // otherwise.
        let (psi_shoup52, omega_stage_shoup52, omega_inv_stage_shoup52, psi_inv_n_shoup52) =
            if ifma_modulus_ok(q) {
                let s52 = |v: &[u64]| -> Vec<u64> {
                    v.iter().map(|&w| shoup52_precompute(w, q)).collect()
                };
                (
                    s52(&psi_pows),
                    s52(&omega_stage),
                    s52(&omega_inv_stage),
                    s52(&psi_inv_n_pows),
                )
            } else {
                (Vec::new(), Vec::new(), Vec::new(), Vec::new())
            };
        Ok(Self {
            n,
            q,
            psi,
            psi_pows,
            psi_shoup,
            psi_shoup52,
            psi_inv_pows,
            omega_pows,
            omega_inv_pows,
            omega_stage,
            omega_stage_shoup,
            omega_stage_shoup52,
            omega_inv_stage,
            omega_inv_stage_shoup,
            omega_inv_stage_shoup52,
            n_inv,
            psi_inv_n_pows,
            psi_inv_n_shoup,
            psi_inv_n_shoup52,
            barrett: Barrett::new(q),
            kernel: NttKernel::auto_for(n, q),
        })
    }

    /// The kernel `forward`/`inverse` currently dispatch to.
    #[inline]
    pub fn kernel(&self) -> NttKernel {
        self.kernel
    }

    /// Fallible kernel override (tests, benches, and scheme contexts
    /// that re-pin all their tables at once).
    ///
    /// An explicit [`NttKernel::Ifma`] does *not* require the
    /// hardware: the portable mirror lanes evaluate the identical
    /// per-lane formulas, which is exactly what conformance suites on
    /// non-IFMA hosts need. The 50-bit width bound is a correctness
    /// bound, though, and is always enforced.
    ///
    /// # Errors
    ///
    /// [`NttError::IfmaPrimeTooWide`] when `kernel` is
    /// [`NttKernel::Ifma`] and this context's modulus is ≥ 2⁵⁰ (its
    /// radix-2⁵² tables were never built).
    pub fn try_set_kernel(&mut self, kernel: NttKernel) -> Result<(), NttError> {
        if !kernel.supports_modulus(self.q) {
            return Err(NttError::IfmaPrimeTooWide { q: self.q });
        }
        self.kernel = kernel;
        Ok(())
    }

    /// Builder-style [`Self::try_set_kernel`].
    ///
    /// # Panics
    ///
    /// Panics when the kernel cannot run over this context's modulus
    /// (see [`Self::try_set_kernel`]).
    #[must_use]
    pub fn with_kernel(mut self, kernel: NttKernel) -> Self {
        self.try_set_kernel(kernel)
            .unwrap_or_else(|e| panic!("cannot set NTT kernel: {e}"));
        self
    }

    /// Ring dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The 2N-th root ψ in use.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Barrett reducer for this modulus (shared by element-wise
    /// kernels that operate alongside the transform).
    #[inline]
    pub fn barrett(&self) -> &Barrett {
        &self.barrett
    }

    /// Runs the Cooley–Tukey stages with lazy (Harvey) butterflies.
    ///
    /// Invariant: stage inputs are `< 4q`, the `u` leg is corrected to
    /// `< 2q` on entry, the twiddle leg comes back `< 2q` from the
    /// lazy Shoup multiply, so both outputs stay `< 4q`.
    ///
    /// `twiddles`/`twiddles_shoup` are the stage-major tables: each
    /// stage's `half` entries are contiguous, so the butterfly loop
    /// streams them. With `reduce_output`, the last stage folds the
    /// `[0, q)` correction into its butterflies, replacing the
    /// separate correction pass; otherwise outputs are lazy (`< 4q`)
    /// and the caller's own scaling pass must finish the reduction.
    ///
    /// Consecutive stages are *fused in pairs*: four elements are
    /// loaded once, both stages' butterflies run in registers, and the
    /// four results are stored once. The arithmetic is bit-identical
    /// to running the stages back to back, but the number of full
    /// passes over the coefficient array is halved — the difference
    /// between compute-bound and memory-bound at large `N`.
    fn lazy_stages(
        &self,
        a: &mut [u64],
        twiddles: &[u64],
        twiddles_shoup: &[u64],
        reduce_output: bool,
    ) {
        bit_reverse_permute(a);
        let mut len = 2;
        // Fused double stages while both fit strictly inside the
        // transform; the remainder (one single stage, one fused pair,
        // or nothing) is handled below so output correction can be
        // folded into whichever loop runs last.
        while 2 * len < self.n {
            self.fused_pair(a, len, twiddles, twiddles_shoup);
            len <<= 2;
        }
        if 2 * len == self.n {
            if reduce_output {
                self.fused_pair_reduce(a, len, twiddles, twiddles_shoup);
            } else {
                self.fused_pair(a, len, twiddles, twiddles_shoup);
            }
        } else if len == self.n {
            if reduce_output {
                self.single_stage_reduce(a, len, twiddles, twiddles_shoup);
            } else {
                self.single_stage(a, len, twiddles, twiddles_shoup);
            }
        }
    }

    /// The cache-blocked radix-4 stage walker. Outputs are congruent
    /// to [`Self::lazy_stages`]' at every element with the same `< 4q`
    /// invariants, so the fully-reduced results are bit-identical;
    /// the schedule and per-stage work differ:
    ///
    /// 1. **Intra-block phase** — every stage whose butterfly span
    ///    fits inside [`RADIX4_BLOCK`] runs, fused in radix-4 pairs,
    ///    on one block at a time while that block is L1-resident. The
    ///    coefficient array makes a single trip through the cache
    ///    hierarchy for all of these stages combined. The first stage
    ///    pair elides the stage-1 unit-twiddle multiply
    ///    ([`Self::fused_pair_first`]), which is why the walker
    ///    requires entry values `< 2q`.
    /// 2. **Cross-block phase** — the remaining `log2(n / BLOCK)`
    ///    stages make full-array passes, still fused in pairs, with a
    ///    radix-2 tail stage when that count is odd. The finishing
    ///    work (`[0, q)` correction, or a fused element-wise twist)
    ///    folds into whichever pass runs last.
    ///
    /// Callers must have `n > RADIX4_BLOCK` (smaller transforms use
    /// the radix-2 walk) and bit-reversed, `< 2q` input.
    fn radix4_stage_walk(
        &self,
        a: &mut [u64],
        twiddles: &[u64],
        twiddles_shoup: &[u64],
        tail: Radix4Tail<'_>,
    ) {
        let n = self.n;
        debug_assert!(n > RADIX4_BLOCK);
        // First stage length NOT covered by the intra-block phase
        // (identical for every block, computed once).
        let mut cross_start = 8;
        while 2 * cross_start <= RADIX4_BLOCK {
            cross_start <<= 2;
        }
        for block in a.chunks_exact_mut(RADIX4_BLOCK) {
            self.fused_pair_first(block, twiddles, twiddles_shoup);
            let mut len = 8;
            while 2 * len <= RADIX4_BLOCK {
                self.fused_pair(block, len, twiddles, twiddles_shoup);
                len <<= 2;
            }
        }
        let mut len = cross_start;
        while 2 * len < n {
            self.fused_pair(a, len, twiddles, twiddles_shoup);
            len <<= 2;
        }
        if 2 * len == n {
            match tail {
                Radix4Tail::Reduce => self.fused_pair_reduce(a, len, twiddles, twiddles_shoup),
                Radix4Tail::Twist { pows, shoup } => {
                    // Folding the twist into this fused pass would
                    // stream data, stage twiddles and both twist
                    // tables together — past L2 at the sizes where
                    // this tail fires. Two streaming passes win.
                    self.fused_pair(a, len, twiddles, twiddles_shoup);
                    self.twist_sweep(a, pows, shoup);
                }
            }
        } else if len == n {
            match tail {
                Radix4Tail::Reduce => self.single_stage_reduce(a, len, twiddles, twiddles_shoup),
                Radix4Tail::Twist { pows, shoup } => {
                    self.single_stage_twist(a, len, twiddles, twiddles_shoup, pows, shoup);
                }
            }
        }
    }

    /// One radix-2 stage with block length `len`, lazy outputs.
    fn single_stage(&self, a: &mut [u64], len: usize, twiddles: &[u64], twiddles_shoup: &[u64]) {
        let q = self.q;
        let two_q = 2 * q;
        let half = len / 2;
        // Stage-major layout: this stage's twiddles start at
        // `half - 1` (sum of the earlier stages' halves).
        let tw = &twiddles[half - 1..2 * half - 1];
        let tws = &twiddles_shoup[half - 1..2 * half - 1];
        // Iterator form: chunk/split/zip lets the compiler drop
        // every bounds check from the butterfly loop.
        for chunk in a.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(half);
            for (((x, y), &w), &ws) in lo.iter_mut().zip(hi.iter_mut()).zip(tw).zip(tws) {
                let mut u = *x;
                if u >= two_q {
                    u -= two_q;
                }
                let t = mul_shoup_lazy(*y, w, ws, q);
                *x = u + t;
                *y = u + two_q - t;
            }
        }
    }

    /// Like [`Self::single_stage`] but with the `[0, q)` correction
    /// folded into the butterfly outputs.
    fn single_stage_reduce(
        &self,
        a: &mut [u64],
        len: usize,
        twiddles: &[u64],
        twiddles_shoup: &[u64],
    ) {
        let q = self.q;
        let two_q = 2 * q;
        let half = len / 2;
        let tw = &twiddles[half - 1..2 * half - 1];
        let tws = &twiddles_shoup[half - 1..2 * half - 1];
        for chunk in a.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(half);
            for (((x, y), &w), &ws) in lo.iter_mut().zip(hi.iter_mut()).zip(tw).zip(tws) {
                let mut u = *x;
                if u >= two_q {
                    u -= two_q;
                }
                let t = mul_shoup_lazy(*y, w, ws, q);
                *x = Self::reduce_4q(u + t, q);
                *y = Self::reduce_4q(u + two_q - t, q);
            }
        }
    }

    /// Brings a lazy representative `v < 4q` back to `[0, q)`.
    #[inline(always)]
    fn reduce_4q(mut v: u64, q: u64) -> u64 {
        if v >= 2 * q {
            v -= 2 * q;
        }
        if v >= q {
            v -= q;
        }
        v
    }

    /// Two consecutive radix-2 stages (block lengths `len` and
    /// `2·len`) fused into one pass: each group of four elements is
    /// loaded once, runs stage A then stage B in registers, and is
    /// stored once. Bit-identical to the unfused stages.
    fn fused_pair(&self, a: &mut [u64], len: usize, twiddles: &[u64], twiddles_shoup: &[u64]) {
        let q = self.q;
        let two_q = 2 * q;
        let ha = len / 2;
        // Stage A twiddles (block `len`), then stage B twiddles
        // (block `2·len`, `len` entries) split into the halves used by
        // the `(x0, x2)` and `(x1, x3)` butterflies.
        let twa = &twiddles[ha - 1..2 * ha - 1];
        let twas = &twiddles_shoup[ha - 1..2 * ha - 1];
        let twb = &twiddles[len - 1..2 * len - 1];
        let twbs = &twiddles_shoup[len - 1..2 * len - 1];
        let (twb_lo, twb_hi) = twb.split_at(ha);
        let (twbs_lo, twbs_hi) = twbs.split_at(ha);
        for chunk in a.chunks_exact_mut(2 * len) {
            let (left, right) = chunk.split_at_mut(len);
            let (x0s, x1s) = left.split_at_mut(ha);
            let (x2s, x3s) = right.split_at_mut(ha);
            for j in 0..ha {
                let (x0, x1, x2, x3) = (x0s[j], x1s[j], x2s[j], x3s[j]);
                let (wa, was) = (twa[j], twas[j]);
                // Stage A: (x0, x1) and (x2, x3).
                let mut u0 = x0;
                if u0 >= two_q {
                    u0 -= two_q;
                }
                let t1 = mul_shoup_lazy(x1, wa, was, q);
                let a0 = u0 + t1;
                let a1 = u0 + two_q - t1;
                let mut u2 = x2;
                if u2 >= two_q {
                    u2 -= two_q;
                }
                let t3 = mul_shoup_lazy(x3, wa, was, q);
                let a2 = u2 + t3;
                let a3 = u2 + two_q - t3;
                // Stage B: (a0, a2) and (a1, a3).
                let mut v0 = a0;
                if v0 >= two_q {
                    v0 -= two_q;
                }
                let s2 = mul_shoup_lazy(a2, twb_lo[j], twbs_lo[j], q);
                x0s[j] = v0 + s2;
                x2s[j] = v0 + two_q - s2;
                let mut v1 = a1;
                if v1 >= two_q {
                    v1 -= two_q;
                }
                let s3 = mul_shoup_lazy(a3, twb_hi[j], twbs_hi[j], q);
                x1s[j] = v1 + s3;
                x3s[j] = v1 + two_q - s3;
            }
        }
    }

    /// Like [`Self::fused_pair`] but with the `[0, q)` correction
    /// folded into the second stage's outputs.
    fn fused_pair_reduce(
        &self,
        a: &mut [u64],
        len: usize,
        twiddles: &[u64],
        twiddles_shoup: &[u64],
    ) {
        let q = self.q;
        let two_q = 2 * q;
        let ha = len / 2;
        let twa = &twiddles[ha - 1..2 * ha - 1];
        let twas = &twiddles_shoup[ha - 1..2 * ha - 1];
        let twb = &twiddles[len - 1..2 * len - 1];
        let twbs = &twiddles_shoup[len - 1..2 * len - 1];
        let (twb_lo, twb_hi) = twb.split_at(ha);
        let (twbs_lo, twbs_hi) = twbs.split_at(ha);
        for chunk in a.chunks_exact_mut(2 * len) {
            let (left, right) = chunk.split_at_mut(len);
            let (x0s, x1s) = left.split_at_mut(ha);
            let (x2s, x3s) = right.split_at_mut(ha);
            for j in 0..ha {
                let (x0, x1, x2, x3) = (x0s[j], x1s[j], x2s[j], x3s[j]);
                let (wa, was) = (twa[j], twas[j]);
                let mut u0 = x0;
                if u0 >= two_q {
                    u0 -= two_q;
                }
                let t1 = mul_shoup_lazy(x1, wa, was, q);
                let a0 = u0 + t1;
                let a1 = u0 + two_q - t1;
                let mut u2 = x2;
                if u2 >= two_q {
                    u2 -= two_q;
                }
                let t3 = mul_shoup_lazy(x3, wa, was, q);
                let a2 = u2 + t3;
                let a3 = u2 + two_q - t3;
                let mut v0 = a0;
                if v0 >= two_q {
                    v0 -= two_q;
                }
                let s2 = mul_shoup_lazy(a2, twb_lo[j], twbs_lo[j], q);
                x0s[j] = Self::reduce_4q(v0 + s2, q);
                x2s[j] = Self::reduce_4q(v0 + two_q - s2, q);
                let mut v1 = a1;
                if v1 >= two_q {
                    v1 -= two_q;
                }
                let s3 = mul_shoup_lazy(a3, twb_hi[j], twbs_hi[j], q);
                x1s[j] = Self::reduce_4q(v1 + s3, q);
                x3s[j] = Self::reduce_4q(v1 + two_q - s3, q);
            }
        }
    }

    /// The first stage pair (block lengths 2 and 4) of the radix-4
    /// walk, with the stage-1 multiply elided: stage 1's only twiddle
    /// is `ω^0 = 1`, so `mul_shoup_lazy(y, 1, …)` is a pure lazy
    /// reduction — skipping it is valid whenever the inputs are
    /// already `< 2q`, which every transform entry guarantees
    /// (reduced coefficients, or a `< 2q` lazy pre-twist). Outputs
    /// stay congruent with the same `< 4q` bound, so the fully
    /// reduced results remain bit-identical to the generic walk.
    fn fused_pair_first(&self, a: &mut [u64], twiddles: &[u64], twiddles_shoup: &[u64]) {
        let q = self.q;
        let two_q = 2 * q;
        // Stage-major layout: stage 2 (block length 4) owns entries
        // [1, 3) — a unit twiddle for the (a0, a2) leg and ω^{N/4}
        // for the (a1, a3) leg. Loop-invariant, hoisted.
        let (wb0, wb0s) = (twiddles[1], twiddles_shoup[1]);
        let (wb1, wb1s) = (twiddles[2], twiddles_shoup[2]);
        for chunk in a.chunks_exact_mut(4) {
            let (x0, x1, x2, x3) = (chunk[0], chunk[1], chunk[2], chunk[3]);
            debug_assert!(x0 < two_q && x1 < two_q && x2 < two_q && x3 < two_q);
            // Stage 1: unit twiddle, butterflies are plain add/sub.
            let a0 = x0 + x1;
            let a1 = x0 + two_q - x1;
            let a2 = x2 + x3;
            let a3 = x2 + two_q - x3;
            // Stage 2: identical to the generic fused pair.
            let mut v0 = a0;
            if v0 >= two_q {
                v0 -= two_q;
            }
            let s2 = mul_shoup_lazy(a2, wb0, wb0s, q);
            chunk[0] = v0 + s2;
            chunk[2] = v0 + two_q - s2;
            let mut v1 = a1;
            if v1 >= two_q {
                v1 -= two_q;
            }
            let s3 = mul_shoup_lazy(a3, wb1, wb1s, q);
            chunk[1] = v1 + s3;
            chunk[3] = v1 + two_q - s3;
        }
    }

    /// A standalone element-wise Shoup twist + `[0, q)` correction
    /// sweep over lazy (`< 4q`) values, with caller-supplied tables.
    fn twist_sweep(&self, a: &mut [u64], pows: &[u64], shoup: &[u64]) {
        let q = self.q;
        for ((x, &w), &ws) in a.iter_mut().zip(pows).zip(shoup) {
            let r = mul_shoup_lazy(*x, w, ws, q);
            *x = if r >= q { r - q } else { r };
        }
    }

    /// Like [`Self::single_stage`] but with the per-element Shoup
    /// twist and `[0, q)` correction folded into the stores. Radix-4
    /// inverse tail for transforms with an odd stage count.
    fn single_stage_twist(
        &self,
        a: &mut [u64],
        len: usize,
        twiddles: &[u64],
        twiddles_shoup: &[u64],
        pows: &[u64],
        shoup: &[u64],
    ) {
        let q = self.q;
        let two_q = 2 * q;
        let half = len / 2;
        let tw = &twiddles[half - 1..2 * half - 1];
        let tws = &twiddles_shoup[half - 1..2 * half - 1];
        let twist = |v: u64, w: u64, ws: u64| {
            let r = mul_shoup_lazy(v, w, ws, q);
            if r >= q {
                r - q
            } else {
                r
            }
        };
        for (ci, chunk) in a.chunks_exact_mut(len).enumerate() {
            let base = ci * len;
            let p = &pows[base..base + len];
            let ps = &shoup[base..base + len];
            let (lo, hi) = chunk.split_at_mut(half);
            for j in 0..half {
                let mut u = lo[j];
                if u >= two_q {
                    u -= two_q;
                }
                let t = mul_shoup_lazy(hi[j], tw[j], tws[j], q);
                lo[j] = twist(u + t, p[j], ps[j]);
                hi[j] = twist(u + two_q - t, p[half + j], ps[half + j]);
            }
        }
    }

    /// Fused bit-reversal + lazy ψ pre-twist: one random-access pass
    /// replaces the radix-2 path's separate twist sweep. Each element
    /// is multiplied by `ψ^i` for its *original* index `i` while being
    /// moved to its bit-reversed slot; reduced inputs come back < 2q.
    fn bit_reverse_twist(&self, a: &mut [u64]) {
        let n = a.len();
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let q = self.q;
        for i in 0..n {
            let j = ((i as u64).reverse_bits() >> (64 - bits)) as usize;
            if i < j {
                let (vi, vj) = (a[i], a[j]);
                a[i] = mul_shoup_lazy(vj, self.psi_pows[j], self.psi_shoup[j], q);
                a[j] = mul_shoup_lazy(vi, self.psi_pows[i], self.psi_shoup[i], q);
            } else if i == j {
                a[i] = mul_shoup_lazy(a[i], self.psi_pows[i], self.psi_shoup[i], q);
            }
        }
    }

    /// In-place cyclic NTT (natural order in and out), ω = ψ², on the
    /// reference loop — the classical oracle of [`crate::cgntt`].
    ///
    /// Input must be reduced (`< q`); output is reduced.
    pub fn forward_cyclic(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        self.cyclic_stages_reference(a, false);
    }

    /// In-place cyclic inverse NTT (natural order in and out).
    pub fn inverse_cyclic(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        self.cyclic_stages_reference(a, true);
        for x in a.iter_mut() {
            *x = mul_mod(*x, self.n_inv, self.q);
        }
    }

    /// Negacyclic forward NTT: coefficient form → evaluation form.
    ///
    /// Evaluation point `i` is `ψ^(2i+1)` (odd powers), matching the
    /// factorization of `X^N + 1`. Dispatches on the context's kernel
    /// (see [`Self::kernel`]).
    pub fn forward(&self, a: &mut [u64]) {
        let _span = ufc_trace::span_full("math", "ntt_forward", self.kernel.name(), self.n as u64);
        self.forward_with(self.kernel, a);
    }

    /// Negacyclic inverse NTT: evaluation form → coefficient form.
    pub fn inverse(&self, a: &mut [u64]) {
        let _span = ufc_trace::span_full("math", "ntt_inverse", self.kernel.name(), self.n as u64);
        self.inverse_with(self.kernel, a);
    }

    /// [`Self::forward`] through an explicitly chosen kernel,
    /// bypassing the context's dispatch. All kernels produce
    /// bit-identical outputs on reduced inputs.
    pub fn forward_with(&self, kernel: NttKernel, a: &mut [u64]) {
        match kernel {
            NttKernel::Reference => self.forward_reference(a),
            NttKernel::Radix4 => self.forward_radix4(a),
            NttKernel::Ifma => self.forward_ifma(a),
        }
    }

    /// [`Self::inverse`] through an explicitly chosen kernel.
    pub fn inverse_with(&self, kernel: NttKernel, a: &mut [u64]) {
        match kernel {
            NttKernel::Reference => self.inverse_reference(a),
            NttKernel::Radix4 => self.inverse_radix4(a),
            NttKernel::Ifma => self.inverse_ifma(a),
        }
    }

    /// Negacyclic forward NTT, radix-4 Shoup/Harvey kernel.
    ///
    /// For `n ≤ RADIX4_BLOCK` the blocked schedule degenerates to the
    /// fused radix-2 walk ([`Self::lazy_stages`]) after a lazy ψ
    /// pre-twist. Above one block it adds three pass-level savings on
    /// top of the blocked schedule: the ψ pre-twist rides along with
    /// the bit-reversal permutation ([`Self::bit_reverse_twist`]), the
    /// stage-1 unit-twiddle multiply is elided
    /// ([`Self::fused_pair_first`]), and the final correction folds
    /// into the last stage's stores. Both paths give bit-identical
    /// outputs.
    fn forward_radix4(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        if self.n <= RADIX4_BLOCK {
            // Lazy ψ pre-twist: reduced inputs come back < 2q, which
            // the stage invariant (< 4q) absorbs.
            let q = self.q;
            for ((x, &w), &ws) in a.iter_mut().zip(&self.psi_pows).zip(&self.psi_shoup) {
                *x = mul_shoup_lazy(*x, w, ws, q);
            }
            self.lazy_stages(a, &self.omega_stage, &self.omega_stage_shoup, true);
            return;
        }
        self.bit_reverse_twist(a);
        self.radix4_stage_walk(
            a,
            &self.omega_stage,
            &self.omega_stage_shoup,
            Radix4Tail::Reduce,
        );
    }

    /// Negacyclic inverse NTT, radix-4 Shoup/Harvey kernel.
    ///
    /// Mirrors [`Self::forward_radix4`]: small transforms run the
    /// fused radix-2 walk and then the `ψ^{-i}·N^{-1}` post-twist
    /// sweep; blocked transforms fold that post-twist into the last
    /// stage's stores instead of making their own trip over the array.
    fn inverse_radix4(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        if self.n <= RADIX4_BLOCK {
            self.lazy_stages(a, &self.omega_inv_stage, &self.omega_inv_stage_shoup, false);
            self.twist_sweep(a, &self.psi_inv_n_pows, &self.psi_inv_n_shoup);
            return;
        }
        bit_reverse_permute(a);
        self.radix4_stage_walk(
            a,
            &self.omega_inv_stage,
            &self.omega_inv_stage_shoup,
            Radix4Tail::Twist {
                pows: &self.psi_inv_n_pows,
                shoup: &self.psi_inv_n_shoup,
            },
        );
    }

    /// Guard shared by every IFMA entry point: the radix-2⁵² tables
    /// exist exactly when `q < 2^50`, and running the 52-bit formulas
    /// past that bound would silently wrap — a panic with the typed
    /// error's message is the only acceptable outcome for an explicit
    /// `forward_with(Ifma)` bypass on a fat-prime context.
    fn assert_ifma_tables(&self) {
        assert!(
            ifma_modulus_ok(self.q),
            "{}",
            NttError::IfmaPrimeTooWide { q: self.q }
        );
    }

    /// Negacyclic forward NTT, 8-wide AVX-512 IFMA lane kernel
    /// (portable mirror lanes when the hardware is absent — same
    /// per-lane formulas, bit-identical outputs).
    ///
    /// The ψ pre-twist rides on the entry pass ([`simd::ntt_entry52`]),
    /// which multiplies each element at its natural index as it loads
    /// it for the bit reversal; the final `[0, q)` correction folds
    /// into the last stage's stores.
    fn forward_ifma(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        self.assert_ifma_tables();
        self.ifma_stage_walk(
            a,
            Some((&self.psi_pows, &self.psi_shoup52)),
            &self.omega_stage,
            &self.omega_stage_shoup52,
            true,
        );
    }

    /// Negacyclic inverse NTT, 8-wide AVX-512 IFMA lane kernel.
    ///
    /// Lazy stage walk, then the fused `ψ^{-i}·N^{-1}` post-twist as
    /// one 52-bit lane sweep with the `[0, q)` correction folded in.
    fn inverse_ifma(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        self.assert_ifma_tables();
        self.ifma_stage_walk(
            a,
            None,
            &self.omega_inv_stage,
            &self.omega_inv_stage_shoup52,
            false,
        );
        simd::twist_reduce52_slice(a, &self.psi_inv_n_pows, &self.psi_inv_n_shoup52, self.q);
    }

    /// The IFMA walk, every pass on the 52-bit lanes. Natural-order
    /// input with entries `< 2q` (any value below `2^52` when `twist`
    /// is given; the twist is applied at natural indices).
    ///
    /// 1. **Entry pass** — [`simd::ntt_entry52`]: twist, bit reversal
    ///    and the three shortest stages (spans 1, 2, 4) in one trip
    ///    over the array, on 8×8 register tiles.
    /// 2. **Fused stage pairs** from span 8 up, one full-array pass
    ///    each, every quarter a whole number of 8-lane vectors, with a
    ///    radix-2 tail stage when the remaining stage count is odd.
    ///    There is no cache blocking: at N = 2^13 and 2^14 a walk
    ///    that ran the in-block pairs block by block timed the same.
    ///
    /// With `reduce_output` the last pass folds the `[0, q)` correction
    /// into its stores; otherwise outputs stay lazy (`< 4q`) for a
    /// caller-side twist/scale sweep to finish. Rings under 8 points
    /// have no entry pass: they twist, permute and run the pairs from
    /// span 1 on the portable tail.
    fn ifma_stage_walk(
        &self,
        a: &mut [u64],
        twist: Option<(&[u64], &[u64])>,
        twiddles: &[u64],
        twiddles_shoup52: &[u64],
        reduce_output: bool,
    ) {
        let (n, q) = (self.n, self.q);
        let mut len = 2;
        if n >= 8 {
            let last = reduce_output && n == 8;
            simd::ntt_entry52(a, twist, &twiddles[..7], &twiddles_shoup52[..7], q, last);
            len = 16;
        } else {
            if let Some((w, w52)) = twist {
                simd::twist_lazy52_slice(a, w, w52, q);
            }
            bit_reverse_permute(a);
        }
        while 2 * len < n {
            self.fused_pair_ifma(a, len, twiddles, twiddles_shoup52, false);
            len <<= 2;
        }
        if 2 * len == n {
            self.fused_pair_ifma(a, len, twiddles, twiddles_shoup52, reduce_output);
        } else if len == n {
            self.single_stage_ifma(a, len, twiddles, twiddles_shoup52, reduce_output);
        }
    }

    /// One pass of two fused stages (block lengths `len`, `2·len`) on
    /// the 52-bit lanes; [`simd::harvey_fused_pair52`] runs the chunk
    /// loop.
    fn fused_pair_ifma(
        &self,
        a: &mut [u64],
        len: usize,
        twiddles: &[u64],
        twiddles_shoup52: &[u64],
        reduce: bool,
    ) {
        let ha = len / 2;
        let twb = &twiddles[len - 1..2 * len - 1];
        let twbs = &twiddles_shoup52[len - 1..2 * len - 1];
        let (twb_lo, twb_hi) = twb.split_at(ha);
        let (twbs_lo, twbs_hi) = twbs.split_at(ha);
        let tw = simd::FusedTwiddles {
            a: &twiddles[ha - 1..2 * ha - 1],
            a_shoup: &twiddles_shoup52[ha - 1..2 * ha - 1],
            b_lo: twb_lo,
            b_lo_shoup: twbs_lo,
            b_hi: twb_hi,
            b_hi_shoup: twbs_hi,
        };
        simd::harvey_fused_pair52(a, len, &tw, self.q, reduce);
    }

    /// 52-bit lane form of [`Self::single_stage`] — the radix-2 tail
    /// stage for odd stage counts.
    fn single_stage_ifma(
        &self,
        a: &mut [u64],
        len: usize,
        twiddles: &[u64],
        twiddles_shoup52: &[u64],
        reduce: bool,
    ) {
        let half = len / 2;
        let tw = &twiddles[half - 1..2 * half - 1];
        let tws = &twiddles_shoup52[half - 1..2 * half - 1];
        for chunk in a.chunks_exact_mut(len) {
            let (lo, hi) = chunk.split_at_mut(half);
            simd::harvey_stage52(lo, hi, tw, tws, self.q, reduce);
        }
    }

    /// Seed forward kernel (pre-Shoup): one `u128 %` per multiply.
    ///
    /// Kept as the measured baseline for `cargo xtask bench-math` and
    /// as the oracle for old-vs-new equivalence tests.
    fn forward_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        for (i, x) in a.iter_mut().enumerate() {
            *x = mul_mod(*x, self.psi_pows[i], self.q);
        }
        self.cyclic_stages_reference(a, false);
    }

    /// Seed inverse kernel (pre-Shoup). See [`Self::forward_reference`].
    fn inverse_reference(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        self.cyclic_stages_reference(a, true);
        for x in a.iter_mut() {
            *x = mul_mod(*x, self.n_inv, self.q);
        }
        for (i, x) in a.iter_mut().enumerate() {
            *x = mul_mod(*x, self.psi_inv_pows[i], self.q);
        }
    }

    /// The seed Cooley–Tukey loop, verbatim: fully-reduced butterflies
    /// whose twiddle multiply is a 128-bit `%` division.
    fn cyclic_stages_reference(&self, a: &mut [u64], inverse: bool) {
        bit_reverse_permute(a);
        let q = self.q;
        let table = if inverse {
            &self.omega_inv_pows
        } else {
            &self.omega_pows
        };
        let mut len = 2;
        while len <= self.n {
            let step = self.n / len;
            for start in (0..self.n).step_by(len) {
                for j in 0..len / 2 {
                    let w = table[j * step];
                    let u = a[start + j];
                    let v = mul_mod(a[start + j + len / 2], w, q);
                    a[start + j] = add_mod(u, v, q);
                    a[start + j + len / 2] = sub_mod(u, v, q);
                }
            }
            len <<= 1;
        }
    }

    /// Converts a polynomial to evaluation form (out of place).
    pub fn to_eval(&self, p: &Poly) -> Poly {
        let mut c = p.coeffs().to_vec();
        self.forward(&mut c);
        Poly::from_coeffs_unchecked(c, self.q)
    }

    /// Converts a polynomial back to coefficient form (out of place).
    pub fn to_coeff(&self, p: &Poly) -> Poly {
        let mut c = p.coeffs().to_vec();
        self.inverse(&mut c);
        Poly::from_coeffs_unchecked(c, self.q)
    }

    /// Negacyclic polynomial product via NTT:
    /// `iNTT(NTT(a) ∘ NTT(b))`.
    pub fn negacyclic_mul(&self, a: &Poly, b: &Poly) -> Poly {
        let _span =
            ufc_trace::span_full("math", "negacyclic_mul", self.kernel.name(), self.n as u64);
        let mut out = a.coeffs().to_vec();
        self.forward(&mut out);
        let mut eb = b.coeffs().to_vec();
        self.forward(&mut eb);
        for (x, &y) in out.iter_mut().zip(eb.iter()) {
            *x = self.barrett.mul(*x, y);
        }
        self.inverse(&mut out);
        Poly::from_coeffs_unchecked(out, self.q)
    }

    /// Seed negacyclic product — the bench-math baseline. Replicates
    /// the seed call chain verbatim: `to_eval(a)`, `to_eval(b)`,
    /// `hadamard`, `to_coeff`, each step allocating a fresh `Poly` and
    /// re-reducing its coefficients with `%`, with `%`-based
    /// butterflies inside the transforms.
    pub fn negacyclic_mul_reference(&self, a: &Poly, b: &Poly) -> Poly {
        let seed_to_eval = |p: &Poly| -> Poly {
            let mut c = p.coeffs().to_vec();
            self.forward_reference(&mut c);
            Poly::from_coeffs(c, self.q)
        };
        let ea = seed_to_eval(a);
        let eb = seed_to_eval(b);
        // Seed `Poly::hadamard`: one `u128 %` per coefficient into a
        // fresh allocation.
        let prod: Vec<u64> = ea
            .coeffs()
            .iter()
            .zip(eb.coeffs())
            .map(|(&x, &y)| mul_mod(x, y, self.q))
            .collect();
        let he = Poly::from_coeffs(prod, self.q);
        let mut c = he.coeffs().to_vec();
        self.inverse_reference(&mut c);
        Poly::from_coeffs(c, self.q)
    }
}

/// How the radix-4 stage walker finishes its last pass: fold the
/// `[0, q)` correction in, or fold a per-element Shoup twist (the
/// inverse's `ψ^{-i}·N^{-1}`) plus the correction into the final
/// stores.
enum Radix4Tail<'a> {
    Reduce,
    Twist { pows: &'a [u64], shoup: &'a [u64] },
}

/// In-place bit-reversal permutation.
pub fn bit_reverse_permute<T>(a: &mut [T]) {
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits) as u64;
        let j = j as usize;
        if i < j {
            a.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_prime;
    use proptest::prelude::*;

    fn ctx(n: usize) -> NttContext {
        NttContext::new(n, generate_ntt_prime(n, 40).unwrap())
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let log_dims: &[usize] = if cfg!(miri) { &[3, 6] } else { &[3, 6, 10] };
        for &log_n in log_dims {
            let n = 1 << log_n;
            let c = ctx(n);
            let orig: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
            let mut a = orig.clone();
            c.forward(&mut a);
            assert_ne!(a, orig, "transform must change data");
            c.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn lazy_kernels_match_reference() {
        let log_dims: &[usize] = if cfg!(miri) { &[3, 5] } else { &[3, 5, 8] };
        for &log_n in log_dims {
            let n = 1 << log_n;
            let c = ctx(n);
            let mut rng = 0x9e3779b97f4a7c15u64;
            let orig: Vec<u64> = (0..n)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    rng % c.modulus()
                })
                .collect();
            let mut fast = orig.clone();
            let mut slow = orig.clone();
            c.forward(&mut fast);
            c.forward_reference(&mut slow);
            assert_eq!(fast, slow, "forward mismatch at n={n}");
            c.inverse(&mut fast);
            c.inverse_reference(&mut slow);
            assert_eq!(fast, slow, "inverse mismatch at n={n}");
            assert_eq!(fast, orig);
        }
    }

    #[test]
    fn kernel_names_display() {
        for k in NttKernel::ALL {
            assert_eq!(format!("{k}"), k.name());
        }
    }

    #[test]
    fn auto_for_picks_ifma_for_every_ring_with_a_narrow_prime() {
        let narrow = (1u64 << 49) - 1;
        let wide = (1u64 << 59) - 55;
        let on_host = if simd::ifma_available() {
            NttKernel::Ifma
        } else {
            NttKernel::Radix4
        };
        for log_n in 0..=16 {
            let n = 1usize << log_n;
            assert_eq!(NttKernel::auto_for(n, narrow), on_host, "n={n}");
            // IFMA never auto-selects past its width bound.
            assert_eq!(NttKernel::auto_for(n, wide), NttKernel::Radix4, "n={n}");
            assert_eq!(
                NttKernel::auto_for(n, 1u64 << 50),
                NttKernel::Radix4,
                "n={n}"
            );
        }
    }

    #[test]
    fn ifma_width_bound_is_enforced() {
        // 59-bit NTT-friendly prime: too wide for the 52-bit window.
        let n = 64usize;
        let q = generate_ntt_prime(n, 59).unwrap();
        assert!(!NttKernel::Ifma.supports_modulus(q));
        let mut c = NttContext::new(n, q);
        assert_eq!(
            c.try_set_kernel(NttKernel::Ifma),
            Err(NttError::IfmaPrimeTooWide { q })
        );
        // The context keeps its previous kernel after the rejection.
        assert_ne!(c.kernel(), NttKernel::Ifma);
        // A fitting prime accepts the override even without hardware
        // (portable mirror lanes).
        let q50 = generate_ntt_prime(n, 45).unwrap();
        assert!(NttKernel::Ifma.supports_modulus(q50));
        let mut c50 = NttContext::new(n, q50);
        assert_eq!(c50.try_set_kernel(NttKernel::Ifma), Ok(()));
        assert_eq!(c50.kernel(), NttKernel::Ifma);
    }

    #[test]
    fn ifma_roundtrip_and_reference_agreement() {
        let log_dims: &[usize] = if cfg!(miri) { &[4, 6] } else { &[4, 6, 10] };
        for &log_n in log_dims {
            let n = 1 << log_n;
            let q = generate_ntt_prime(n, 45).unwrap();
            let c = NttContext::new(n, q).with_kernel(NttKernel::Ifma);
            let mut rng = 0x452821e638d01377u64 ^ (n as u64);
            let orig: Vec<u64> = (0..n)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    rng % q
                })
                .collect();
            let mut fast = orig.clone();
            let mut slow = orig.clone();
            c.forward(&mut fast);
            c.forward_reference(&mut slow);
            assert_eq!(fast, slow, "forward mismatch at n={n}");
            c.inverse(&mut fast);
            c.inverse_reference(&mut slow);
            assert_eq!(fast, slow, "inverse mismatch at n={n}");
            assert_eq!(fast, orig);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "rings past 64 points; the stable test job runs it")]
    fn ifma_matches_radix4_across_schedules() {
        // 2^12 is radix-4's unblocked walk, 2^13/2^14 its blocked one;
        // the IFMA walk is the same at every size.
        for log_n in [12usize, 13, 14] {
            let n = 1 << log_n;
            let q = generate_ntt_prime(n, 49).unwrap();
            let c = NttContext::new(n, q);
            let mut rng = 0xbe5466cf34e90c6cu64 ^ (n as u64);
            let orig: Vec<u64> = (0..n)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    rng % q
                })
                .collect();
            let mut rv = orig.clone();
            let mut iv = orig.clone();
            c.forward_radix4(&mut rv);
            c.forward_ifma(&mut iv);
            assert_eq!(rv, iv, "forward mismatch at n={n}");
            c.inverse_radix4(&mut rv);
            c.inverse_ifma(&mut iv);
            assert_eq!(rv, iv, "inverse mismatch at n={n}");
            assert_eq!(iv, orig, "roundtrip mismatch at n={n}");
        }
    }

    /// The IFMA entry pass against its definition: the twist at
    /// natural indices, the bit reversal, then the first three
    /// stage-major stages as fully reduced butterflies. The pass reads
    /// its seven broadcast twiddles straight from the stage-major
    /// table, so this pins that layout too. Lazy outputs stay below
    /// `4q`; rings under 64 points run the portable mirror, the rest
    /// the lanes (on IFMA hosts).
    #[test]
    fn entry_pass_is_twist_bit_reversal_and_three_stages() {
        let log_dims: &[usize] = if cfg!(miri) {
            &[3, 6]
        } else {
            &[3, 4, 5, 6, 7, 8, 12]
        };
        for &log_n in log_dims {
            let n = 1 << log_n;
            for bits in [30u32, 45, 50] {
                let q = generate_ntt_prime(n, bits).unwrap();
                let c = NttContext::new(n, q);
                let mut rng = 0x6a09e667f3bcc909u64 ^ (n as u64) ^ u64::from(bits);
                let orig: Vec<u64> = (0..n)
                    .map(|_| {
                        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                        rng % (2 * q)
                    })
                    .collect();
                for twisted in [true, false] {
                    let mut want: Vec<u64> = orig.iter().map(|&x| x % q).collect();
                    if twisted {
                        for (x, &w) in want.iter_mut().zip(&c.psi_pows) {
                            *x = mul_mod(*x, w, q);
                        }
                    }
                    bit_reverse_permute(&mut want);
                    for half in [1, 2, 4] {
                        for block in want.chunks_exact_mut(2 * half) {
                            for j in 0..half {
                                let w = c.omega_stage[half - 1 + j];
                                let t = mul_mod(block[j + half], w, q);
                                let u = block[j];
                                block[j] = add_mod(u, t, q);
                                block[j + half] = sub_mod(u, t, q);
                            }
                        }
                    }
                    let twist = twisted.then_some((&c.psi_pows[..], &c.psi_shoup52[..]));
                    let (tw, tw52) = (&c.omega_stage[..7], &c.omega_stage_shoup52[..7]);
                    let mut lazy = orig.clone();
                    simd::ntt_entry52(&mut lazy, twist, tw, tw52, q, false);
                    let mut reduced = orig.clone();
                    simd::ntt_entry52(&mut reduced, twist, tw, tw52, q, true);
                    for i in 0..n {
                        assert!(lazy[i] < 4 * q, "lazy bound n={n} {bits}-bit i={i}");
                        assert_eq!(lazy[i] % q, want[i], "n={n} {bits}-bit i={i} {twisted}");
                        assert_eq!(reduced[i], want[i], "n={n} {bits}-bit i={i} {twisted}");
                    }
                }
            }
        }
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let q = generate_ntt_prime(64, 40).unwrap();
        assert_eq!(
            NttContext::try_new(48, q).unwrap_err(),
            NttError::DimNotPowerOfTwo { n: 48 }
        );
        assert_eq!(
            NttContext::try_new(64, 0).unwrap_err(),
            NttError::ModulusOutOfRange { q: 0 }
        );
        assert_eq!(
            NttContext::try_new(64, 1 << 62).unwrap_err(),
            NttError::ModulusOutOfRange { q: 1 << 62 }
        );
        // 513 = 27·19 is ≡ 1 mod 128, so compositeness is what trips.
        assert_eq!(
            NttContext::try_new(64, 513).unwrap_err(),
            NttError::ModulusNotPrime { q: 513 }
        );
        // A prime that is not 1 mod 2n: 2^31 - 1 (Mersenne).
        assert_eq!(
            NttContext::try_new(64, (1 << 31) - 1).unwrap_err(),
            NttError::NotNttFriendly {
                n: 64,
                q: (1 << 31) - 1
            }
        );
        // ψ = 1 is never a primitive 2N-th root for N > 1.
        assert_eq!(
            NttContext::try_with_psi(64, q, 1).unwrap_err(),
            NttError::PsiNotPrimitive { psi: 1, q }
        );
        assert!(NttContext::try_new(64, q).is_ok());
    }

    #[test]
    #[cfg_attr(miri, ignore = "rings past 64 points; the stable test job runs it")]
    fn radix4_matches_reference_above_and_below_block() {
        // 2^12 exercises the degenerate (single-block) path, 2^13 the
        // single-tail-stage path, 2^14 the fused cross-block pair.
        for log_n in [12usize, 13, 14] {
            let n = 1 << log_n;
            let c = ctx(n);
            let mut rng = 0x243f6a8885a308d3u64 ^ (n as u64);
            let orig: Vec<u64> = (0..n)
                .map(|_| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    rng % c.modulus()
                })
                .collect();
            let mut rf = orig.clone();
            let mut r4 = orig.clone();
            c.forward_reference(&mut rf);
            c.forward_radix4(&mut r4);
            assert_eq!(rf, r4, "forward mismatch at n={n}");
            c.inverse_reference(&mut rf);
            c.inverse_radix4(&mut r4);
            assert_eq!(rf, r4, "inverse mismatch at n={n}");
            assert_eq!(r4, orig, "roundtrip mismatch at n={n}");
        }
    }

    #[test]
    fn forced_kernels_agree_on_negacyclic_mul() {
        let n = 64;
        let base = ctx(n);
        let a = Poly::from_coeffs((0..n as u64).map(|i| i * 17 + 3).collect(), base.modulus());
        let b = Poly::from_coeffs((0..n as u64).map(|i| i * 5 + 9).collect(), base.modulus());
        let expect = a.negacyclic_mul_schoolbook(&b);
        for k in NttKernel::ALL {
            let c = base.clone().with_kernel(k);
            assert_eq!(c.kernel(), k);
            assert_eq!(c.negacyclic_mul(&a, &b), expect, "kernel {k}");
        }
    }

    #[test]
    fn cyclic_roundtrip_stays_reduced() {
        let n = 64;
        let c = ctx(n);
        let orig: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % c.modulus()).collect();
        let mut a = orig.clone();
        c.forward_cyclic(&mut a);
        assert!(a.iter().all(|&v| v < c.modulus()));
        c.inverse_cyclic(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn ntt_mul_matches_schoolbook() {
        let n = 32;
        let c = ctx(n);
        let a = Poly::from_coeffs((0..n as u64).map(|i| i * i + 3).collect(), c.modulus());
        let b = Poly::from_coeffs((0..n as u64).map(|i| 5 * i + 11).collect(), c.modulus());
        assert_eq!(c.negacyclic_mul(&a, &b), a.negacyclic_mul_schoolbook(&b));
        assert_eq!(
            c.negacyclic_mul_reference(&a, &b),
            a.negacyclic_mul_schoolbook(&b)
        );
    }

    #[test]
    fn eval_of_monomial_x_is_odd_psi_powers_permuted() {
        // NTT(X) must be the multiset { psi^(2i+1) } since the
        // evaluation points are the primitive 2N-th roots.
        let n = 16;
        let c = ctx(n);
        let x = Poly::monomial(1, 1, n, c.modulus());
        let eval = c.to_eval(&x);
        let mut expected: Vec<u64> = (0..n)
            .map(|i| pow_mod(c.psi(), (2 * i + 1) as u64, c.modulus()))
            .collect();
        let mut got = eval.coeffs().to_vec();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn constant_poly_is_fixed_point() {
        let n = 8;
        let c = ctx(n);
        let k = Poly::from_coeffs(vec![42, 0, 0, 0, 0, 0, 0, 0], c.modulus());
        let eval = c.to_eval(&k);
        assert!(eval.coeffs().iter().all(|&v| v == 42));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(seed in any::<u64>()) {
            let n = 64;
            let c = ctx(n);
            let mut rng = seed;
            let orig: Vec<u64> = (0..n).map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                rng % c.modulus()
            }).collect();
            let mut a = orig.clone();
            c.forward(&mut a);
            c.inverse(&mut a);
            prop_assert_eq!(a, orig);
        }

        #[test]
        fn prop_lazy_forward_matches_reference(seed in any::<u64>()) {
            let n = 64;
            let c = ctx(n);
            let mut rng = seed | 1;
            let orig: Vec<u64> = (0..n).map(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng % c.modulus()
            }).collect();
            let mut fast = orig.clone();
            let mut slow = orig;
            c.forward(&mut fast);
            c.forward_reference(&mut slow);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_mul_commutes(seed in any::<u64>()) {
            let n = 32;
            let c = ctx(n);
            let mut rng = seed | 1;
            let mut next = || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng % c.modulus()
            };
            let a = Poly::from_coeffs((0..n).map(|_| next()).collect(), c.modulus());
            let b = Poly::from_coeffs((0..n).map(|_| next()).collect(), c.modulus());
            prop_assert_eq!(c.negacyclic_mul(&a, &b), c.negacyclic_mul(&b, &a));
        }

        #[test]
        fn prop_mul_distributes_over_add(seed in any::<u64>()) {
            let n = 16;
            let c = ctx(n);
            let mut rng = seed | 1;
            let mut next = || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng % c.modulus()
            };
            let a = Poly::from_coeffs((0..n).map(|_| next()).collect(), c.modulus());
            let b = Poly::from_coeffs((0..n).map(|_| next()).collect(), c.modulus());
            let d = Poly::from_coeffs((0..n).map(|_| next()).collect(), c.modulus());
            let lhs = c.negacyclic_mul(&a, &b.add(&d));
            let rhs = c.negacyclic_mul(&a, &b).add(&c.negacyclic_mul(&a, &d));
            prop_assert_eq!(lhs, rhs);
        }
    }
}
