//! SIMD lane kernels: the software stand-in for UFC's arrays of
//! butterfly and modular-ALU lanes.
//!
//! Every public function here is a *slice kernel*: it applies one
//! modular primitive across a whole slice, dispatching once per call
//! between three backends:
//!
//! * **AVX2** (`x86_64` only) — `u64x4` lanes built from
//!   `core::arch::x86_64` intrinsics, for the element-wise ops whose
//!   vector win is structural: `add`, `sub` and the broadcast Shoup
//!   `scale`. AVX2 has no unsigned 64-bit compare, so it is
//!   synthesized by biasing both operands with the sign bit and using
//!   the signed `vpcmpgtq`. Selected at runtime via
//!   [`avx2_available`].
//! * **AVX-512 IFMA** (`x86_64` only) — `u64x8` lanes around
//!   `vpmadd52lo/hi` (`_mm512_madd52{lo,hi}_epu64`), which multiply
//!   52-bit operands and return either half of the 104-bit product in
//!   one instruction. This is the 52-bit *kernel generation*: it
//!   serves moduli `q < 2^50` only (the two spare bits are the Harvey
//!   `< 4q` lazy headroom) and uses `2^52`-radix Shoup companions from
//!   [`crate::modops::shoup52_precompute`]. Selected at runtime via
//!   [`ifma_available`].
//! * **Portable** — scalar fallbacks, always compiled, on every
//!   architecture: a 4-lane unroll mirroring the AVX2 kernels
//!   (`portable`) and a 52-bit mirror of the IFMA kernels
//!   (`portable52`). They reuse the scalar primitives from
//!   [`crate::modops`], so they are trivially bit-identical to the
//!   pre-SIMD code paths.
//!
//! # Per-op dispatch
//!
//! Element-wise ops route **per op** by one static rule
//! ([`ew_backend`]) that depends only on what the code can observe —
//! the host's feature probes and the modulus width:
//!
//! * `add`/`sub`/`scale` take AVX2 when the host has it, else the
//!   portable unroll;
//! * `mul`/`mac` take IFMA when the host has it and `q < 2^50`, else
//!   portable Barrett.
//!
//! AVX2 has no 64×64-bit multiply, so wide-modulus `mul`/`mac` stay on
//! scalar Barrett: a 2×32-bit limb-split vector multiply measured
//! 5–27 % slower than it at 31–60-bit primes. The same `(op, q)`
//! therefore lands on the same backend in every process on a host,
//! and `bench_math` records that backend next to each `ew_kernels`
//! row.
//!
//! # Bit-identity contract
//!
//! All backends produce **exactly** the same output words:
//!
//! * The lazy kernels ([`scale_shoup_slice`] and the 52-bit NTT
//!   kernels [`twist_lazy52_slice`], [`twist_reduce52_slice`],
//!   [`harvey_stage52`], [`harvey_fused_pair52`]) evaluate the *same
//!   integer formula* per lane as their scalar counterparts
//!   (`a·w − ⌊a·w_shoup/2^R⌋·q` in wrapping arithmetic, `R = 64` or
//!   `52`), so even the lazy
//!   `[0, 2q)`/`[0, 4q)` representatives match word for word — the
//!   Harvey lazy-reduction bounds are preserved, not just congruence.
//! * The canonical kernels ([`add_mod_slice`], [`sub_mod_slice`],
//!   [`mac_mod_slice`]) use the same conditional-subtract formula per
//!   lane. [`mul_mod_slice`] is the one kernel where the backends use
//!   different *internal* reductions (full-width Barrett on the
//!   portable path, a 52-bit Barrett on IFMA); both return the unique
//!   canonical residue in `[0, q)`, so outputs are still identical.
//!   `mul`/`mac` accept *lazy multiplicands* in `[0, 2q)` on every
//!   backend (the `mac` accumulator stays canonical).
//!
//! Tail elements past the last full lane group are always handled by
//! the scalar arithmetic of the portable backends, on every path.
//!
//! # Environment
//!
//! `UFC_SIMD_DISABLE` (read once per process) force-disables vector
//! backends for A/B runs and for tests that simulate missing hardware:
//! `avx2` (AVX2 off), `ifma` (AVX-512 IFMA off) or `all`. Turning a
//! backend off sends the ops the rule gives it to the portable path. Unknown
//! values warn once on stderr and are otherwise ignored.
//!
//! This is the **only** module in the workspace that uses `unsafe`
//! (see the workspace `unsafe_code = "deny"` lint note in the root
//! `Cargo.toml`): raw-pointer vector loads/stores and the
//! `#[target_feature]` call boundary. Each site carries a SAFETY
//! comment; everything else in the crate remains `#![deny(unsafe_code)]`.
//! (The `unsafe_code` allowance itself lives on the `mod simd`
//! declaration in `lib.rs`, next to the deny it punches through.)

use crate::modops::{
    add_mod, ifma_modulus_ok, mul_shoup52_lazy, mul_shoup_lazy, reduce_4q, Barrett,
};

/// Lane width of the 64-bit SIMD backends: both the AVX2 path (`u64x4`
/// in a 256-bit register) and the portable scalar unroll process 4
/// elements per group.
pub const LANES: usize = 4;

/// Lane width of the 52-bit (AVX-512 IFMA) backend: `u64x8` in a
/// 512-bit register.
pub const LANES52: usize = 8;

/// Which vector backends `UFC_SIMD_DISABLE` turned off, read once per
/// process: `(avx2_disabled, ifma_disabled)`.
fn env_disabled() -> (bool, bool) {
    use std::sync::OnceLock;
    static DISABLED: OnceLock<(bool, bool)> = OnceLock::new();
    *DISABLED.get_or_init(|| match std::env::var("UFC_SIMD_DISABLE") {
        Ok(v) => match v.trim() {
            "" => (false, false),
            "avx2" => (true, false),
            "ifma" => (false, true),
            "all" => (true, true),
            other => {
                eprintln!(
                    "warning: unrecognized UFC_SIMD_DISABLE value {other:?} \
                     (expected avx2|ifma|all); ignoring"
                );
                (false, false)
            }
        },
        Err(_) => (false, false),
    })
}

/// Whether the AVX2 backend is usable on this host. Probed once with
/// `is_x86_feature_detected!("avx2")` and cached in a `OnceLock`;
/// always `false` off `x86_64`, under Miri, or when
/// `UFC_SIMD_DISABLE=avx2|all` is set.
pub fn avx2_available() -> bool {
    // Miri cannot execute vendor intrinsics; force every dispatch
    // onto the portable lanes so the whole SIMD surface stays
    // checkable under the interpreter.
    if cfg!(miri) {
        return false;
    }
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        if env_disabled().0 {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the AVX-512 IFMA backend is usable on this host. Probed
/// once (`avx512f` + `avx512ifma`) and cached in a `OnceLock`; always
/// `false` off `x86_64`, under Miri, or when `UFC_SIMD_DISABLE` names
/// `ifma` or `all`.
///
/// Availability gates only *hardware* dispatch: the 52-bit kernel
/// generation itself ([`harvey_stage52`] and friends, and
/// [`crate::ntt::NttKernel::Ifma`]) always runs, on the bit-identical
/// `portable52` lanes, when explicitly requested on a host without the
/// instructions.
pub fn ifma_available() -> bool {
    if cfg!(miri) {
        return false;
    }
    use std::sync::OnceLock;
    static IFMA: OnceLock<bool> = OnceLock::new();
    *IFMA.get_or_init(|| {
        if env_disabled().1 {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512ifma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The element-wise slice ops routed by [`ew_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwOp {
    /// [`add_mod_slice`].
    Add,
    /// [`sub_mod_slice`].
    Sub,
    /// [`mul_mod_slice`] — the hadamard kernel.
    Mul,
    /// [`mac_mod_slice`].
    Mac,
    /// [`scale_shoup_slice`].
    Scale,
}

impl EwOp {
    /// Every routed op, in bench-table order.
    pub const ALL: [EwOp; 5] = [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Mac, EwOp::Scale];

    /// Stable lowercase name (bench tables, logs).
    pub fn name(self) -> &'static str {
        match self {
            EwOp::Add => "add",
            EwOp::Sub => "sub",
            EwOp::Mul => "mul",
            EwOp::Mac => "mac",
            EwOp::Scale => "scale",
        }
    }
}

/// The backend a routed op lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwBackend {
    /// Scalar lanes (always available).
    Portable,
    /// 4-wide AVX2 lanes (`add`/`sub`/`scale`).
    Avx2,
    /// 8-wide AVX-512 IFMA 52-bit lanes.
    Ifma,
}

impl EwBackend {
    /// Stable lowercase name (bench tables, logs).
    pub fn name(self) -> &'static str {
        match self {
            EwBackend::Portable => "portable",
            EwBackend::Avx2 => "avx2",
            EwBackend::Ifma => "ifma",
        }
    }
}

/// Routes one element-wise op for modulus `q` on this host — the one
/// static dispatch rule every element-wise slice kernel follows:
///
/// * `add`/`sub`/`scale` take AVX2 when the host has it (no 64-bit
///   multiply involved, so the vector win is structural: 1.6–2.2x);
/// * `mul`/`mac` take the IFMA 52-bit Barrett lanes when the host has
///   them *and* `q < 2^50`;
/// * everything else runs the portable unroll.
///
/// The answer depends only on the feature probes (each cached for the
/// process) and `q`, so it never changes between calls or processes.
pub fn ew_backend(op: EwOp, q: u64) -> EwBackend {
    match op {
        EwOp::Add | EwOp::Sub | EwOp::Scale if avx2_available() => EwBackend::Avx2,
        EwOp::Mul | EwOp::Mac if ifma_available() && ifma_modulus_ok(q) => EwBackend::Ifma,
        _ => EwBackend::Portable,
    }
}

/// The six stage-twiddle slices consumed by one fused radix-2 stage
/// pair (stage A plus the two halves of stage B), bundled so the
/// butterfly kernel's signature stays readable. All slices have the
/// same length as the coefficient quarter-slices they multiply.
#[derive(Debug, Clone, Copy)]
pub struct FusedTwiddles<'a> {
    /// Stage-A twiddles (block length `len`).
    pub a: &'a [u64],
    /// Shoup companions of `a`.
    pub a_shoup: &'a [u64],
    /// Stage-B twiddles for the `(x0, x2)` butterflies.
    pub b_lo: &'a [u64],
    /// Shoup companions of `b_lo`.
    pub b_lo_shoup: &'a [u64],
    /// Stage-B twiddles for the `(x1, x3)` butterflies.
    pub b_hi: &'a [u64],
    /// Shoup companions of `b_hi`.
    pub b_hi_shoup: &'a [u64],
}

/// `a[i] ← (a[i] + b[i]) mod q`, canonical inputs and outputs.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    match ew_backend(EwOp::Add, q) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: ew_backend only routes here after avx2_available().
        EwBackend::Avx2 => unsafe { avx2::add_mod_slice(a, b, q) },
        _ => portable::add_mod_slice(a, b, q),
    }
}

/// `a[i] ← (a[i] - b[i]) mod q`, canonical inputs and outputs.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    match ew_backend(EwOp::Sub, q) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: ew_backend only routes here after avx2_available().
        EwBackend::Avx2 => unsafe { avx2::sub_mod_slice(a, b, q) },
        _ => portable::sub_mod_slice(a, b, q),
    }
}

/// Hadamard product `a[i] ← a[i]·b[i] mod q`.
///
/// Multiplicands may be *lazy* representatives in `[0, 2q)`; the
/// output is always the canonical residue. Routed per op
/// ([`ew_backend`]): the IFMA path (moduli below `2^50`) runs a 52-bit
/// Barrett on `vpmadd52` lanes, the portable path a full-width Barrett
/// (as the scalar plane kernel always did). Both return the canonical
/// residue, so outputs are bit-identical.
///
/// # Panics
///
/// Panics if the slices differ in length or `q` is outside the
/// Barrett range `[2, 2⁶²)`.
pub fn mul_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "slice length mismatch");
    match ew_backend(EwOp::Mul, q) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: ew_backend only routes here after ifma_available().
        EwBackend::Ifma => unsafe { ifma::mul_mod_slice(a, b, q) },
        _ => portable::mul_mod_slice(a, b, q),
    }
}

/// Multiply-accumulate `acc[i] ← (acc[i] + a[i]·b[i]) mod q`.
///
/// Multiplicands may be lazy representatives in `[0, 2q)`; the
/// accumulator must be canonical. Routed per op like
/// [`mul_mod_slice`].
///
/// # Panics
///
/// Panics if the slices differ in length or `q` is outside the
/// Barrett range `[2, 2⁶²)`.
pub fn mac_mod_slice(acc: &mut [u64], a: &[u64], b: &[u64], q: u64) {
    assert_eq!(acc.len(), a.len(), "slice length mismatch");
    assert_eq!(acc.len(), b.len(), "slice length mismatch");
    match ew_backend(EwOp::Mac, q) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: ew_backend only routes here after ifma_available().
        EwBackend::Ifma => unsafe { ifma::mac_mod_slice(acc, a, b, q) },
        _ => portable::mac_mod_slice(acc, a, b, q),
    }
}

/// Broadcast Shoup scale `a[i] ← a[i]·s mod q`, fully reduced.
/// `s_shoup` must be [`shoup_precompute`](crate::modops::shoup_precompute)`(s, q)`; `a` may hold any
/// 64-bit values (lazy representatives included), the output is
/// canonical — the exact contract of [`crate::modops::mul_shoup`].
pub fn scale_shoup_slice(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
    match ew_backend(EwOp::Scale, q) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: ew_backend only routes here after avx2_available().
        EwBackend::Avx2 => unsafe { avx2::scale_shoup_slice(a, s, s_shoup, q) },
        _ => portable::scale_shoup_slice(a, s, s_shoup, q),
    }
}

/// Element-wise lazy 52-bit Shoup twist `a[i] ← a[i]·w[i] mod q` as a
/// representative in `[0, 2q)` — the IFMA generation's ψ pre-twist.
/// `w52` holds [`crate::modops::shoup52_precompute`] companions;
/// inputs must be below `2^52` and `q < 2^50`.
///
/// Dispatches to the AVX-512 IFMA lanes when available, else to the
/// bit-identical `portable52` scalar mirror — the 52-bit generation is
/// always runnable.
///
/// # Panics
///
/// Panics if the slices differ in length; debug-panics if `q` exceeds
/// the 50-bit IFMA ceiling.
pub fn twist_lazy52_slice(a: &mut [u64], w: &[u64], w52: &[u64], q: u64) {
    assert_eq!(a.len(), w.len(), "slice length mismatch");
    assert_eq!(a.len(), w52.len(), "slice length mismatch");
    debug_assert!(ifma_modulus_ok(q), "modulus must fit 50 bits");
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: IFMA support was verified at runtime just above.
        unsafe { ifma::twist_lazy52_slice(a, w, w52, q) };
        return;
    }
    portable52::twist_lazy52_slice(a, w, w52, q);
}

/// Element-wise 52-bit Shoup twist with the `[0, q)` correction folded
/// in — the IFMA generation's fused `ψ^{-i}·N^{-1}` inverse post-twist,
/// straight off lazy (`< 4q`) stage outputs.
///
/// # Panics
///
/// Panics if the slices differ in length; debug-panics if `q` exceeds
/// the 50-bit IFMA ceiling.
pub fn twist_reduce52_slice(a: &mut [u64], w: &[u64], w52: &[u64], q: u64) {
    assert_eq!(a.len(), w.len(), "slice length mismatch");
    assert_eq!(a.len(), w52.len(), "slice length mismatch");
    debug_assert!(ifma_modulus_ok(q), "modulus must fit 50 bits");
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: IFMA support was verified at runtime just above.
        unsafe { ifma::twist_reduce52_slice(a, w, w52, q) };
        return;
    }
    portable52::twist_reduce52_slice(a, w, w52, q);
}

/// One Harvey lazy radix-2 butterfly stage over paired half-slices
/// on the 52-bit generation: for each `j`,
///
/// ```text
/// u  = lo[j] − 2q·[lo[j] ≥ 2q]          (correct the u leg to < 2q)
/// t  = hi[j]·tw[j] mod q as < 2q        (lazy 52-bit Shoup multiply)
/// lo[j] = u + t,   hi[j] = u + 2q − t   (both < 4q < 2^52)
/// ```
///
/// `tw52` holds [`crate::modops::shoup52_precompute`] companions.
/// With `reduce`, both outputs get the final `[0, q)` correction — the
/// last-stage variant. The same data flow serves the inverse
/// transform: this codebase runs the inverse as a Cooley–Tukey walk
/// over the ω⁻¹ stage tables (not a Gentleman–Sande butterfly), so
/// forward and inverse share this one primitive.
///
/// # Panics
///
/// Panics if the slices differ in length; debug-panics if `q` exceeds
/// the 50-bit IFMA ceiling.
pub fn harvey_stage52(
    lo: &mut [u64],
    hi: &mut [u64],
    tw: &[u64],
    tw52: &[u64],
    q: u64,
    reduce: bool,
) {
    assert_eq!(lo.len(), hi.len(), "slice length mismatch");
    assert_eq!(lo.len(), tw.len(), "slice length mismatch");
    assert_eq!(lo.len(), tw52.len(), "slice length mismatch");
    debug_assert!(ifma_modulus_ok(q), "modulus must fit 50 bits");
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: IFMA support was verified at runtime just above.
        unsafe { ifma::harvey_stage52(lo, hi, tw, tw52, q, reduce) };
        return;
    }
    portable52::harvey_stage52(lo, hi, tw, tw52, q, reduce);
}

/// Two fused Harvey radix-2 stages over the four quarter-slices of a
/// `2·len` chunk on the 52-bit generation: stage A butterflies
/// `(x0, x1)` and `(x2, x3)` with the `tw.a` twiddles, then stage B
/// butterflies `(a0, a2)` and `(a1, a3)` with `tw.b_lo`/`tw.b_hi`, all
/// in registers, with a single load and store per element.
/// Bit-identical to running [`harvey_stage52`] twice. With `reduce`,
/// stage B's outputs get the `[0, q)` correction. The `*_shoup` fields
/// of `tw` carry **52-bit** companions.
///
/// # Panics
///
/// Panics if any slice length differs from `x0`'s; debug-panics if
/// `q` exceeds the 50-bit IFMA ceiling.
pub fn harvey_fused_pair52(
    x0: &mut [u64],
    x1: &mut [u64],
    x2: &mut [u64],
    x3: &mut [u64],
    tw: &FusedTwiddles<'_>,
    q: u64,
    reduce: bool,
) {
    let ha = x0.len();
    assert!(
        x1.len() == ha && x2.len() == ha && x3.len() == ha,
        "quarter-slice length mismatch"
    );
    assert!(
        tw.a.len() == ha
            && tw.a_shoup.len() == ha
            && tw.b_lo.len() == ha
            && tw.b_lo_shoup.len() == ha
            && tw.b_hi.len() == ha
            && tw.b_hi_shoup.len() == ha,
        "twiddle slice length mismatch"
    );
    debug_assert!(ifma_modulus_ok(q), "modulus must fit 50 bits");
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // SAFETY: IFMA support was verified at runtime just above.
        unsafe { ifma::harvey_fused_pair52(x0, x1, x2, x3, tw, q, reduce) };
        return;
    }
    portable52::harvey_fused_pair52(x0, x1, x2, x3, tw, q, reduce);
}

/// The portable backend: 4-lane scalar-unrolled loops over the same
/// scalar primitives the pre-SIMD code paths used. Always compiled (on
/// every architecture) and always used for tail elements, so the AVX2
/// backend's conformance target is in the same binary.
mod portable {
    use super::{add_mod, mul_shoup_lazy, Barrett, LANES};

    #[inline(always)]
    fn csub(v: u64, m: u64) -> u64 {
        if v >= m {
            v - m
        } else {
            v
        }
    }

    pub(super) fn add_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
        let mut bc = b.chunks_exact(LANES);
        let mut ac = a.chunks_exact_mut(LANES);
        for (av, bv) in (&mut ac).zip(&mut bc) {
            av[0] = add_mod(av[0], bv[0], q);
            av[1] = add_mod(av[1], bv[1], q);
            av[2] = add_mod(av[2], bv[2], q);
            av[3] = add_mod(av[3], bv[3], q);
        }
        for (x, &y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
            *x = add_mod(*x, y, q);
        }
    }

    pub(super) fn sub_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
        let sub = |x: u64, y: u64| if x >= y { x - y } else { x + q - y };
        let mut bc = b.chunks_exact(LANES);
        let mut ac = a.chunks_exact_mut(LANES);
        for (av, bv) in (&mut ac).zip(&mut bc) {
            av[0] = sub(av[0], bv[0]);
            av[1] = sub(av[1], bv[1]);
            av[2] = sub(av[2], bv[2]);
            av[3] = sub(av[3], bv[3]);
        }
        for (x, &y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
            *x = sub(*x, y);
        }
    }

    pub(super) fn mul_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
        // reduce_u128 of the full product rather than Barrett::mul:
        // same canonical result for canonical inputs, and it extends
        // the accepted multiplicand domain to the lazy [0, 2q) range
        // the slice contract now promises (2q < 2^63, so the u128
        // product is exact).
        let br = Barrett::new(q);
        let mul = |x: u64, y: u64| br.reduce_u128(x as u128 * y as u128);
        let mut bc = b.chunks_exact(LANES);
        let mut ac = a.chunks_exact_mut(LANES);
        for (av, bv) in (&mut ac).zip(&mut bc) {
            av[0] = mul(av[0], bv[0]);
            av[1] = mul(av[1], bv[1]);
            av[2] = mul(av[2], bv[2]);
            av[3] = mul(av[3], bv[3]);
        }
        for (x, &y) in ac.into_remainder().iter_mut().zip(bc.remainder()) {
            *x = mul(*x, y);
        }
    }

    pub(super) fn mac_mod_slice(acc: &mut [u64], a: &[u64], b: &[u64], q: u64) {
        let br = Barrett::new(q);
        let mac = |d: u64, x: u64, y: u64| add_mod(d, br.reduce_u128(x as u128 * y as u128), q);
        let mut av = a.chunks_exact(LANES);
        let mut bv = b.chunks_exact(LANES);
        let mut dv = acc.chunks_exact_mut(LANES);
        for ((d, x), y) in (&mut dv).zip(&mut av).zip(&mut bv) {
            d[0] = mac(d[0], x[0], y[0]);
            d[1] = mac(d[1], x[1], y[1]);
            d[2] = mac(d[2], x[2], y[2]);
            d[3] = mac(d[3], x[3], y[3]);
        }
        for ((d, &x), &y) in dv
            .into_remainder()
            .iter_mut()
            .zip(av.remainder())
            .zip(bv.remainder())
        {
            *d = mac(*d, x, y);
        }
    }

    pub(super) fn scale_shoup_slice(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
        let mul = |x: u64| csub(mul_shoup_lazy(x, s, s_shoup, q), q);
        let mut ac = a.chunks_exact_mut(LANES);
        for av in &mut ac {
            av[0] = mul(av[0]);
            av[1] = mul(av[1]);
            av[2] = mul(av[2]);
            av[3] = mul(av[3]);
        }
        for x in ac.into_remainder() {
            *x = mul(*x);
        }
    }
}

/// The portable mirror of the 52-bit (IFMA) kernel generation: plain
/// scalar loops over [`crate::modops::mul_shoup52_lazy`], always
/// compiled, on every architecture. The IFMA lanes evaluate the same
/// integer formula per lane, so the two are bit-identical word for
/// word — this is what `NttKernel::Ifma` runs on hosts (and CI
/// runners, and Miri) without the instructions.
mod portable52 {
    use super::{mul_shoup52_lazy, reduce_4q, FusedTwiddles};
    use crate::modops::M52;

    #[inline(always)]
    fn csub(v: u64, m: u64) -> u64 {
        if v >= m {
            v - m
        } else {
            v
        }
    }

    /// Scalar 52-bit Barrett multiply — the exact per-lane formula of
    /// `ifma::mul_mod_slice`, runnable everywhere (including under
    /// Miri). `n = bits(q)`, `μ = ⌊2^{2n}/q⌋ < 2^{n+1}`:
    ///
    /// ```text
    /// p = x·y                      (x, y canonical after a csub)
    /// d = ⌊p / 2^{n−2}⌋ < 2^{n+2}  (spliced from the madd52 halves)
    /// q̂ = ⌊d·μ / 2^{n+2}⌋         (undershoots ⌊p/q⌋ by at most 2)
    /// r = (p − q̂·q) mod 2^52 < 3q  (then two csubs to canonical)
    /// ```
    ///
    /// Accepts lazy multiplicands `x, y < 2q`; requires `q < 2^50`.
    pub fn mul_mod_barrett52(x: u64, y: u64, q: u64) -> u64 {
        debug_assert!(crate::modops::ifma_modulus_ok(q));
        let x = csub(x, q);
        let y = csub(y, q);
        let n = 64 - q.leading_zeros();
        let mu = ((1u128 << (2 * n)) / q as u128) as u64;
        let p = x as u128 * y as u128;
        // The two halves vpmadd52lo/hi deliver on the lanes.
        let (p_hi, p_lo) = ((p >> 52) as u64, p as u64 & M52);
        let d = (p_hi << (54 - n)) | (p_lo >> (n - 2));
        let e = d as u128 * mu as u128;
        let (e_hi, e_lo) = ((e >> 52) as u64, e as u64 & M52);
        let qhat = (e_hi << (50 - n)) | (e_lo >> (n + 2));
        let r = p_lo.wrapping_sub(qhat.wrapping_mul(q)) & M52;
        debug_assert!(r < 4 * q);
        reduce_4q(r, q)
    }

    /// Scalar 52-bit Harvey butterfly shared by both stage kernels.
    #[inline(always)]
    fn butterfly52(x: u64, y: u64, w: u64, w52: u64, q: u64) -> (u64, u64) {
        let two_q = 2 * q;
        let u = csub(x, two_q);
        let t = mul_shoup52_lazy(y, w, w52, q);
        (u + t, u + two_q - t)
    }

    pub(super) fn twist_lazy52_slice(a: &mut [u64], w: &[u64], w52: &[u64], q: u64) {
        for ((x, &wv), &sv) in a.iter_mut().zip(w).zip(w52) {
            *x = mul_shoup52_lazy(*x, wv, sv, q);
        }
    }

    pub(super) fn twist_reduce52_slice(a: &mut [u64], w: &[u64], w52: &[u64], q: u64) {
        for ((x, &wv), &sv) in a.iter_mut().zip(w).zip(w52) {
            *x = csub(mul_shoup52_lazy(*x, wv, sv, q), q);
        }
    }

    pub(super) fn harvey_stage52(
        lo: &mut [u64],
        hi: &mut [u64],
        tw: &[u64],
        tw52: &[u64],
        q: u64,
        reduce: bool,
    ) {
        for (((x, y), &w), &w52) in lo.iter_mut().zip(hi.iter_mut()).zip(tw).zip(tw52) {
            let (a, b) = butterfly52(*x, *y, w, w52, q);
            if reduce {
                *x = reduce_4q(a, q);
                *y = reduce_4q(b, q);
            } else {
                *x = a;
                *y = b;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn harvey_fused_pair52(
        x0: &mut [u64],
        x1: &mut [u64],
        x2: &mut [u64],
        x3: &mut [u64],
        tw: &FusedTwiddles<'_>,
        q: u64,
        reduce: bool,
    ) {
        for j in 0..x0.len() {
            let (a0, a1) = butterfly52(x0[j], x1[j], tw.a[j], tw.a_shoup[j], q);
            let (a2, a3) = butterfly52(x2[j], x3[j], tw.a[j], tw.a_shoup[j], q);
            let (y0, y2) = butterfly52(a0, a2, tw.b_lo[j], tw.b_lo_shoup[j], q);
            let (y1, y3) = butterfly52(a1, a3, tw.b_hi[j], tw.b_hi_shoup[j], q);
            if reduce {
                x0[j] = reduce_4q(y0, q);
                x1[j] = reduce_4q(y1, q);
                x2[j] = reduce_4q(y2, q);
                x3[j] = reduce_4q(y3, q);
            } else {
                x0[j] = y0;
                x1[j] = y1;
                x2[j] = y2;
                x3[j] = y3;
            }
        }
    }
}

/// Scalar reference for the IFMA 52-bit Barrett multiply formula —
/// see `portable52::mul_mod_barrett52`. Exported for the conformance
/// and property suites (and Miri).
pub use portable52::mul_mod_barrett52;

/// The AVX2 backend. Every function carries
/// `#[target_feature(enable = "avx2")]` and is only reachable through
/// the dispatchers above after [`avx2_available`] returned true.
///
/// Layout of every kernel: process `len / 4 * 4` elements in 256-bit
/// groups, then delegate the tail to the scalar arithmetic of the
/// portable backend so tails are handled identically on both paths.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{portable, LANES};
    use core::arch::x86_64::*;

    /// Sign-bit bias for synthesizing unsigned 64-bit compares out of
    /// the signed `vpcmpgtq`.
    const SIGN: i64 = i64::MIN;

    /// Broadcasts `v` to all four lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splat(v: u64) -> __m256i {
        _mm256_set1_epi64x(v as i64)
    }

    /// Unsigned per-lane `a < b` mask (all-ones lanes where true).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_lt(a: __m256i, b: __m256i) -> __m256i {
        let bias = _mm256_set1_epi64x(SIGN);
        _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias), _mm256_xor_si256(a, bias))
    }

    /// Conditional subtract: per lane, `v - m` if `v ≥ m` else `v`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn csub(v: __m256i, m: __m256i) -> __m256i {
        // andnot(lt, m) keeps `m` exactly in the lanes where v ≥ m.
        _mm256_sub_epi64(v, _mm256_andnot_si256(cmp_lt(v, m), m))
    }

    /// Low 64 bits of the per-lane product `a·b`, from three
    /// `vpmuludq` 32×32 partials (the `ahi·bhi` term shifts out).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_lo(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32))
    }

    /// High 64 bits of the per-lane product `a·b`: all four 32×32
    /// partials with explicit carry propagation through the middle
    /// column.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_hi(a: __m256i, b: __m256i) -> __m256i {
        let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // Middle column: (ll >> 32) + lo32(lh) + lo32(hl) ≤ 3·(2³²−1),
        // no 64-bit overflow; its high word is the carry into `hh`.
        let mid = _mm256_add_epi64(
            _mm256_srli_epi64(ll, 32),
            _mm256_add_epi64(_mm256_and_si256(lh, lo32), _mm256_and_si256(hl, lo32)),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64(mid, 32)),
            _mm256_add_epi64(_mm256_srli_epi64(lh, 32), _mm256_srli_epi64(hl, 32)),
        )
    }

    /// Per-lane `mul_shoup_lazy(a, w, w_shoup, q)`: identical wrapping
    /// formula, so lazy representatives match the scalar path word for
    /// word.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn shoup_lazy(a: __m256i, w: __m256i, ws: __m256i, q: __m256i) -> __m256i {
        let hi = mul_hi(a, ws);
        _mm256_sub_epi64(mul_lo(a, w), mul_lo(hi, q))
    }

    /// Unaligned 4-lane load from `s[i..i + 4]`.
    ///
    /// SAFETY (callers): `i + 4 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(s: &[u64], i: usize) -> __m256i {
        debug_assert!(i + LANES <= s.len());
        // SAFETY: in-bounds per the function contract; loadu has no
        // alignment requirement.
        unsafe { _mm256_loadu_si256(s.as_ptr().add(i).cast()) }
    }

    /// Unaligned 4-lane store to `s[i..i + 4]`.
    ///
    /// SAFETY (callers): `i + 4 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(s: &mut [u64], i: usize, v: __m256i) {
        debug_assert!(i + LANES <= s.len());
        // SAFETY: in-bounds per the function contract; storeu has no
        // alignment requirement.
        unsafe { _mm256_storeu_si256(s.as_mut_ptr().add(i).cast(), v) }
    }

    /// Number of elements covered by full 4-lane groups.
    #[inline]
    fn full(n: usize) -> usize {
        n / LANES * LANES
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
        let qv = splat(q);
        let n4 = full(a.len());
        for i in (0..n4).step_by(LANES) {
            let s = _mm256_add_epi64(load(a, i), load(b, i));
            store(a, i, csub(s, qv));
        }
        portable::add_mod_slice(&mut a[n4..], &b[n4..], q);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
        let qv = splat(q);
        let n4 = full(a.len());
        for i in (0..n4).step_by(LANES) {
            let x = load(a, i);
            let y = load(b, i);
            // x - y, plus q exactly in the lanes where x < y.
            let add_q = _mm256_and_si256(cmp_lt(x, y), qv);
            store(a, i, _mm256_add_epi64(_mm256_sub_epi64(x, y), add_q));
        }
        portable::sub_mod_slice(&mut a[n4..], &b[n4..], q);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_shoup_slice(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
        let wv = splat(s);
        let wsv = splat(s_shoup);
        let qv = splat(q);
        let n4 = full(a.len());
        for i in (0..n4).step_by(LANES) {
            let r = shoup_lazy(load(a, i), wv, wsv, qv);
            store(a, i, csub(r, qv));
        }
        portable::scale_shoup_slice(&mut a[n4..], s, s_shoup, q);
    }
}

/// The AVX-512 IFMA backend: `u64x8` lanes around `vpmadd52lo/hi`.
/// Every function carries
/// `#[target_feature(enable = "avx512f,avx512ifma")]` and is only
/// reachable through the dispatchers above after [`ifma_available`]
/// returned true. All kernels require `q < 2^50` (enforced upstream by
/// `modops::ifma_modulus_ok` — the 52-bit lane domain minus the `< 4q`
/// lazy headroom).
///
/// Layout mirrors the AVX2 backend: full 8-lane groups in 512-bit
/// registers, tails delegated to the scalar portable paths. The NTT
/// kernels evaluate exactly the `portable52` formulas per lane
/// (52-bit-radix Shoup folds in wrapping-then-mask arithmetic), so
/// lazy representatives are bit-identical across backends.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{portable, portable52, FusedTwiddles, LANES52};
    use crate::modops::M52;
    use core::arch::x86_64::*;

    /// Broadcasts `v` to all eight lanes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn splat(v: u64) -> __m512i {
        _mm512_set1_epi64(v as i64)
    }

    /// Conditional subtract: per lane, `v - m` if `v ≥ m` else `v`.
    /// AVX-512 has native unsigned compares into mask registers, so
    /// no sign-bias dance is needed here.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn csub(v: __m512i, m: __m512i) -> __m512i {
        let ge = _mm512_cmpge_epu64_mask(v, m);
        _mm512_mask_sub_epi64(v, ge, v, m)
    }

    /// Brings lazy `< 4q` lanes back to `[0, q)`, matching
    /// `modops::reduce_4q` per lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn reduce_4q_vec(v: __m512i, q: __m512i, two_q: __m512i) -> __m512i {
        csub(csub(v, two_q), q)
    }

    /// `⌊a·b / 2^52⌋` per lane (operands below `2^52`), one
    /// `vpmadd52huq` off a zero accumulator.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn madd52hi(a: __m512i, b: __m512i) -> __m512i {
        _mm512_madd52hi_epu64(_mm512_setzero_si512(), a, b)
    }

    /// `a·b mod 2^52` per lane, one `vpmadd52luq` off a zero
    /// accumulator.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn madd52lo(a: __m512i, b: __m512i) -> __m512i {
        _mm512_madd52lo_epu64(_mm512_setzero_si512(), a, b)
    }

    /// Per-lane `mul_shoup52_lazy(a, w, w52, q)`: identical
    /// wrapping-then-mask formula, so lazy representatives match the
    /// `portable52` path word for word. Three fused multiplies per 8
    /// lanes — against 10 `vpmuludq` per 4 lanes for the 64-bit
    /// [`super::avx2`] equivalent, the structural win of the 52-bit
    /// generation.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn shoup52_lazy(a: __m512i, w: __m512i, w52: __m512i, q: __m512i) -> __m512i {
        let hi = madd52hi(a, w52);
        let m52 = splat(M52);
        _mm512_and_si512(_mm512_sub_epi64(madd52lo(a, w), madd52lo(hi, q)), m52)
    }

    /// Unaligned 8-lane load from `s[i..i + 8]`.
    ///
    /// SAFETY (callers): `i + 8 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn load(s: &[u64], i: usize) -> __m512i {
        debug_assert!(i + LANES52 <= s.len());
        // SAFETY: in-bounds per the function contract; loadu has no
        // alignment requirement.
        unsafe { _mm512_loadu_si512(s.as_ptr().add(i).cast()) }
    }

    /// Unaligned 8-lane store to `s[i..i + 8]`.
    ///
    /// SAFETY (callers): `i + 8 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn store(s: &mut [u64], i: usize, v: __m512i) {
        debug_assert!(i + LANES52 <= s.len());
        // SAFETY: in-bounds per the function contract; storeu has no
        // alignment requirement.
        unsafe { _mm512_storeu_si512(s.as_mut_ptr().add(i).cast(), v) }
    }

    /// Number of elements covered by full 8-lane groups.
    #[inline]
    fn full(n: usize) -> usize {
        n / LANES52 * LANES52
    }

    /// The 52-bit Barrett multiply behind the `mul`/`mac` IFMA route:
    /// five fused multiplies per 8 lanes. Per-lane it evaluates exactly
    /// `portable52::mul_mod_barrett52` — see that function for the
    /// `q̂` undershoot proof (`r < 3q < 2^52`).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn mul_mod_slice(a: &mut [u64], b: &[u64], q: u64) {
        let n = 64 - q.leading_zeros() as u64;
        let muv = splat(((1u128 << (2 * n)) / q as u128) as u64);
        let qv = splat(q);
        let two_qv = splat(2 * q);
        let m52 = splat(M52);
        let sh_d_hi = splat(54 - n);
        let sh_d_lo = splat(n - 2);
        let sh_q_hi = splat(50 - n);
        let sh_q_lo = splat(n + 2);
        let n8 = full(a.len());
        for i in (0..n8).step_by(LANES52) {
            let x = csub(load(a, i), qv);
            let y = csub(load(b, i), qv);
            let p_hi = madd52hi(x, y);
            let p_lo = madd52lo(x, y);
            let d = _mm512_or_si512(
                _mm512_sllv_epi64(p_hi, sh_d_hi),
                _mm512_srlv_epi64(p_lo, sh_d_lo),
            );
            let e_hi = madd52hi(d, muv);
            let e_lo = madd52lo(d, muv);
            let qhat = _mm512_or_si512(
                _mm512_sllv_epi64(e_hi, sh_q_hi),
                _mm512_srlv_epi64(e_lo, sh_q_lo),
            );
            let r = _mm512_and_si512(_mm512_sub_epi64(p_lo, madd52lo(qhat, qv)), m52);
            store(a, i, reduce_4q_vec(r, qv, two_qv));
        }
        portable::mul_mod_slice(&mut a[n8..], &b[n8..], q);
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn mac_mod_slice(acc: &mut [u64], a: &[u64], b: &[u64], q: u64) {
        let n = 64 - q.leading_zeros() as u64;
        let muv = splat(((1u128 << (2 * n)) / q as u128) as u64);
        let qv = splat(q);
        let two_qv = splat(2 * q);
        let m52 = splat(M52);
        let sh_d_hi = splat(54 - n);
        let sh_d_lo = splat(n - 2);
        let sh_q_hi = splat(50 - n);
        let sh_q_lo = splat(n + 2);
        let n8 = full(acc.len());
        for i in (0..n8).step_by(LANES52) {
            let x = csub(load(a, i), qv);
            let y = csub(load(b, i), qv);
            let p_hi = madd52hi(x, y);
            let p_lo = madd52lo(x, y);
            let d = _mm512_or_si512(
                _mm512_sllv_epi64(p_hi, sh_d_hi),
                _mm512_srlv_epi64(p_lo, sh_d_lo),
            );
            let e_hi = madd52hi(d, muv);
            let e_lo = madd52lo(d, muv);
            let qhat = _mm512_or_si512(
                _mm512_sllv_epi64(e_hi, sh_q_hi),
                _mm512_srlv_epi64(e_lo, sh_q_lo),
            );
            let r = _mm512_and_si512(_mm512_sub_epi64(p_lo, madd52lo(qhat, qv)), m52);
            let prod = reduce_4q_vec(r, qv, two_qv);
            let s = _mm512_add_epi64(load(acc, i), prod);
            store(acc, i, csub(s, qv));
        }
        portable::mac_mod_slice(&mut acc[n8..], &a[n8..], &b[n8..], q);
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn twist_lazy52_slice(a: &mut [u64], w: &[u64], w52: &[u64], q: u64) {
        let qv = splat(q);
        let n8 = full(a.len());
        for i in (0..n8).step_by(LANES52) {
            store(a, i, shoup52_lazy(load(a, i), load(w, i), load(w52, i), qv));
        }
        portable52::twist_lazy52_slice(&mut a[n8..], &w[n8..], &w52[n8..], q);
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn twist_reduce52_slice(a: &mut [u64], w: &[u64], w52: &[u64], q: u64) {
        let qv = splat(q);
        let n8 = full(a.len());
        for i in (0..n8).step_by(LANES52) {
            let r = shoup52_lazy(load(a, i), load(w, i), load(w52, i), qv);
            store(a, i, csub(r, qv));
        }
        portable52::twist_reduce52_slice(&mut a[n8..], &w[n8..], &w52[n8..], q);
    }

    /// Vector 52-bit Harvey butterfly: `(u + t, u + 2q − t)` with the
    /// u leg corrected to `< 2q`, exactly like `portable52`'s. All
    /// values stay below `4q < 2^52`, so the 64-bit lane adds cannot
    /// wrap.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn butterfly52(
        x: __m512i,
        y: __m512i,
        w: __m512i,
        w52: __m512i,
        q: __m512i,
        two_q: __m512i,
    ) -> (__m512i, __m512i) {
        let u = csub(x, two_q);
        let t = shoup52_lazy(y, w, w52, q);
        (
            _mm512_add_epi64(u, t),
            _mm512_sub_epi64(_mm512_add_epi64(u, two_q), t),
        )
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn harvey_stage52(
        lo: &mut [u64],
        hi: &mut [u64],
        tw: &[u64],
        tw52: &[u64],
        q: u64,
        reduce: bool,
    ) {
        let qv = splat(q);
        let two_qv = splat(2 * q);
        let n8 = full(lo.len());
        for i in (0..n8).step_by(LANES52) {
            let (mut a, mut b) = butterfly52(
                load(lo, i),
                load(hi, i),
                load(tw, i),
                load(tw52, i),
                qv,
                two_qv,
            );
            if reduce {
                a = reduce_4q_vec(a, qv, two_qv);
                b = reduce_4q_vec(b, qv, two_qv);
            }
            store(lo, i, a);
            store(hi, i, b);
        }
        portable52::harvey_stage52(
            &mut lo[n8..],
            &mut hi[n8..],
            &tw[n8..],
            &tw52[n8..],
            q,
            reduce,
        );
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn harvey_fused_pair52(
        x0: &mut [u64],
        x1: &mut [u64],
        x2: &mut [u64],
        x3: &mut [u64],
        tw: &FusedTwiddles<'_>,
        q: u64,
        reduce: bool,
    ) {
        let qv = splat(q);
        let two_qv = splat(2 * q);
        let n8 = full(x0.len());
        for i in (0..n8).step_by(LANES52) {
            let wa = load(tw.a, i);
            let wa52 = load(tw.a_shoup, i);
            let (a0, a1) = butterfly52(load(x0, i), load(x1, i), wa, wa52, qv, two_qv);
            let (a2, a3) = butterfly52(load(x2, i), load(x3, i), wa, wa52, qv, two_qv);
            let (mut y0, mut y2) =
                butterfly52(a0, a2, load(tw.b_lo, i), load(tw.b_lo_shoup, i), qv, two_qv);
            let (mut y1, mut y3) =
                butterfly52(a1, a3, load(tw.b_hi, i), load(tw.b_hi_shoup, i), qv, two_qv);
            if reduce {
                y0 = reduce_4q_vec(y0, qv, two_qv);
                y1 = reduce_4q_vec(y1, qv, two_qv);
                y2 = reduce_4q_vec(y2, qv, two_qv);
                y3 = reduce_4q_vec(y3, qv, two_qv);
            }
            store(x0, i, y0);
            store(x1, i, y1);
            store(x2, i, y2);
            store(x3, i, y3);
        }
        let rest = FusedTwiddles {
            a: &tw.a[n8..],
            a_shoup: &tw.a_shoup[n8..],
            b_lo: &tw.b_lo[n8..],
            b_lo_shoup: &tw.b_lo_shoup[n8..],
            b_hi: &tw.b_hi[n8..],
            b_hi_shoup: &tw.b_hi_shoup[n8..],
        };
        portable52::harvey_fused_pair52(
            &mut x0[n8..],
            &mut x1[n8..],
            &mut x2[n8..],
            &mut x3[n8..],
            &rest,
            q,
            reduce,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modops::{mul_mod, mul_shoup, shoup_precompute, sub_mod};
    use crate::prime::generate_ntt_prime;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed
    }

    fn vecs(len: usize, q: u64, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut s = seed | 1;
        let a = (0..len).map(|_| lcg(&mut s) % q).collect();
        let b = (0..len).map(|_| lcg(&mut s) % q).collect();
        (a, b)
    }

    /// Every slice kernel at lengths that exercise empty, tail-only,
    /// exact-multiple and mixed group/tail splits, against the scalar
    /// oracles.
    #[test]
    fn slice_kernels_match_scalar_oracles() {
        let q = generate_ntt_prime(64, 59).unwrap();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 31, 64, 67] {
            let (a, b) = vecs(len, q, 0x5eed ^ len as u64);

            let mut add = a.clone();
            add_mod_slice(&mut add, &b, q);
            let mut sub = a.clone();
            sub_mod_slice(&mut sub, &b, q);
            let mut mul = a.clone();
            mul_mod_slice(&mut mul, &b, q);
            let mut mac = b.clone();
            mac_mod_slice(&mut mac, &a, &b, q);
            for j in 0..len {
                assert_eq!(add[j], add_mod(a[j], b[j], q), "add len={len} j={j}");
                assert_eq!(sub[j], sub_mod(a[j], b[j], q), "sub len={len} j={j}");
                assert_eq!(mul[j], mul_mod(a[j], b[j], q), "mul len={len} j={j}");
                assert_eq!(
                    mac[j],
                    add_mod(b[j], mul_mod(a[j], b[j], q), q),
                    "mac len={len} j={j}"
                );
            }

            let s = a.first().copied().unwrap_or(3) % q;
            let ss = shoup_precompute(s, q);
            let mut scaled = a.clone();
            scale_shoup_slice(&mut scaled, s, ss, q);
            for j in 0..len {
                assert_eq!(
                    scaled[j],
                    mul_shoup(a[j], s, ss, q),
                    "scale len={len} j={j}"
                );
            }
        }
    }

    /// On IFMA hosts, the dispatched backend (IFMA 52-bit Barrett at
    /// 30/45/50 bits, portable at 59) must agree word-for-word with the
    /// always-compiled portable backend (on other hosts this
    /// degenerates to portable-vs-portable and trivially passes, which
    /// is exactly the fallback contract).
    #[test]
    fn backends_agree_across_moduli() {
        for bits in [30u32, 45, 50, 59] {
            let q = generate_ntt_prime(128, bits).unwrap();
            let (a, b) = vecs(133, q, u64::from(bits));
            let mut x = a.clone();
            mul_mod_slice(&mut x, &b, q);
            let mut y = a.clone();
            portable::mul_mod_slice(&mut y, &b, q);
            assert_eq!(x, y, "mul_mod backends diverge at {bits} bits");
            let mut x = b.clone();
            mac_mod_slice(&mut x, &a, &b, q);
            let mut y = b.clone();
            portable::mac_mod_slice(&mut y, &a, &b, q);
            assert_eq!(x, y, "mac backends diverge at {bits} bits");
        }
    }

    /// The 52-bit Barrett scalar mirror (the exact per-lane formula of
    /// the IFMA `mul`/`mac` path) against Barrett, over the whole
    /// supported width range including the 50-bit ceiling and tiny
    /// moduli, on canonical and denormal operands.
    #[test]
    fn barrett52_scalar_mirror_matches_barrett() {
        for q in [
            generate_ntt_prime(64, 50).unwrap(),
            generate_ntt_prime(64, 45).unwrap(),
            generate_ntt_prime(64, 30).unwrap(),
            12289,
            (1u64 << 50) - 27, // odd non-prime at the ceiling
            17,
        ] {
            assert!(crate::modops::ifma_modulus_ok(q), "q={q}");
            let mut s = 0x52b ^ q;
            for i in 0..200 {
                let (x, y) = if i % 2 == 0 {
                    (lcg(&mut s) % q, lcg(&mut s) % q)
                } else {
                    (q + lcg(&mut s) % q, q + lcg(&mut s) % q)
                };
                assert_eq!(
                    mul_mod_barrett52(x, y, q),
                    mul_mod(x % q, y % q, q),
                    "q={q} x={x} y={y}"
                );
            }
            for (x, y) in [
                (0, 0),
                (q - 1, q - 1),
                (2 * q - 1, 2 * q - 1),
                (1, 2 * q - 1),
            ] {
                assert_eq!(mul_mod_barrett52(x, y, q), mul_mod(x % q, y % q, q));
            }
        }
    }

    /// `mul`/`mac` slices on denormal `[q, 2q)` multiplicands — the
    /// lazy-operand half of the slice contract — against the
    /// reduced-operand oracle, at IFMA-width and wider moduli. Both
    /// the dispatched kernels and the portable ones run: on IFMA hosts
    /// dispatch sends the sub-2^50 moduli to the vector lanes, so the
    /// direct portable calls keep the portable path's lazy-operand
    /// handling covered there too.
    #[test]
    fn mul_mac_slices_accept_lazy_multiplicands() {
        type Mul = fn(&mut [u64], &[u64], u64);
        type Mac = fn(&mut [u64], &[u64], &[u64], u64);
        let kernels: [(&str, Mul, Mac); 2] = [
            ("dispatched", mul_mod_slice, mac_mod_slice),
            ("portable", portable::mul_mod_slice, portable::mac_mod_slice),
        ];
        for bits in [31u32, 50, 59] {
            let q = generate_ntt_prime(64, bits).unwrap();
            for len in [0usize, 1, 7, 8, 9, 64, 67] {
                let mut s = 0xdeb0 ^ (u64::from(bits) << 8) ^ len as u64;
                let a: Vec<u64> = (0..len).map(|_| q + lcg(&mut s) % q).collect();
                let b: Vec<u64> = (0..len).map(|_| q + lcg(&mut s) % q).collect();
                let acc0: Vec<u64> = (0..len).map(|_| lcg(&mut s) % q).collect();
                for (path, mul_k, mac_k) in kernels {
                    let mut mul = a.clone();
                    mul_k(&mut mul, &b, q);
                    let mut mac = acc0.clone();
                    mac_k(&mut mac, &a, &b, q);
                    for j in 0..len {
                        let p = mul_mod(a[j] % q, b[j] % q, q);
                        assert_eq!(mul[j], p, "{path} mul bits={bits} len={len} j={j}");
                        assert_eq!(
                            mac[j],
                            add_mod(acc0[j], p, q),
                            "{path} mac bits={bits} len={len} j={j}"
                        );
                    }
                }
            }
        }
    }

    /// The 52-bit kernel surface ([`harvey_stage52`],
    /// [`harvey_fused_pair52`], the twists) against the scalar 52-bit
    /// formula on lazy inputs — exact word equality on the lazy
    /// representatives, mirroring the 64-bit butterfly test. On IFMA
    /// hosts this exercises the `vpmadd52` lanes; elsewhere (and under
    /// Miri) the portable52 mirror.
    #[test]
    fn kernels52_match_scalar_formula_on_lazy_inputs() {
        use crate::modops::{mul_shoup52, shoup52_precompute};
        let q = generate_ntt_prime(64, 50).unwrap();
        let scalar_butterfly = |x: u64, y: u64, w: u64, w52: u64| {
            let two_q = 2 * q;
            let u = if x >= two_q { x - two_q } else { x };
            let t = mul_shoup52_lazy(y, w, w52, q);
            (u + t, u + two_q - t)
        };
        for len in [1usize, 3, 7, 8, 9, 16, 64] {
            let mut s = 0x52f ^ len as u64;
            let lo0: Vec<u64> = (0..len).map(|_| lcg(&mut s) % (4 * q)).collect();
            let hi0: Vec<u64> = (0..len).map(|_| lcg(&mut s) % (4 * q)).collect();
            let w: Vec<u64> = (0..len).map(|_| lcg(&mut s) % q).collect();
            let w52: Vec<u64> = w.iter().map(|&x| shoup52_precompute(x, q)).collect();
            for reduce in [false, true] {
                let mut lo = lo0.clone();
                let mut hi = hi0.clone();
                harvey_stage52(&mut lo, &mut hi, &w, &w52, q, reduce);
                for j in 0..len {
                    let (a, b) = scalar_butterfly(lo0[j], hi0[j], w[j], w52[j]);
                    let (a, b) = if reduce {
                        (reduce_4q(a, q), reduce_4q(b, q))
                    } else {
                        (a, b)
                    };
                    assert_eq!(lo[j], a, "stage52 lo len={len} j={j} reduce={reduce}");
                    assert_eq!(hi[j], b, "stage52 hi len={len} j={j} reduce={reduce}");
                }
            }
            // Twists against the scalar 52-bit Shoup primitives.
            let mut lazy = lo0.clone();
            twist_lazy52_slice(&mut lazy, &w, &w52, q);
            let mut red = lo0.clone();
            twist_reduce52_slice(&mut red, &w, &w52, q);
            for j in 0..len {
                assert_eq!(lazy[j], mul_shoup52_lazy(lo0[j], w[j], w52[j], q));
                assert!(lazy[j] < 2 * q, "lazy52 bound len={len} j={j}");
                assert_eq!(red[j], mul_shoup52(lo0[j], w[j], w52[j], q));
            }
            // Fused pair vs two explicit stages on denormal [q, 2q)
            // inputs.
            let mk = |s: &mut u64| -> Vec<u64> { (0..len).map(|_| q + lcg(s) % q).collect() };
            let (x0, x1, x2, x3) = (mk(&mut s), mk(&mut s), mk(&mut s), mk(&mut s));
            let wb: Vec<u64> = (0..2 * len).map(|_| lcg(&mut s) % q).collect();
            let wb52: Vec<u64> = wb.iter().map(|&x| shoup52_precompute(x, q)).collect();
            let tw = FusedTwiddles {
                a: &w,
                a_shoup: &w52,
                b_lo: &wb[..len],
                b_lo_shoup: &wb52[..len],
                b_hi: &wb[len..],
                b_hi_shoup: &wb52[len..],
            };
            for reduce in [false, true] {
                let (mut f0, mut f1, mut f2, mut f3) =
                    (x0.clone(), x1.clone(), x2.clone(), x3.clone());
                harvey_fused_pair52(&mut f0, &mut f1, &mut f2, &mut f3, &tw, q, reduce);
                let (mut g0, mut g1, mut g2, mut g3) =
                    (x0.clone(), x1.clone(), x2.clone(), x3.clone());
                harvey_stage52(&mut g0, &mut g1, &w, &w52, q, false);
                harvey_stage52(&mut g2, &mut g3, &w, &w52, q, false);
                harvey_stage52(&mut g0, &mut g2, &wb[..len], &wb52[..len], q, reduce);
                harvey_stage52(&mut g1, &mut g3, &wb[len..], &wb52[len..], q, reduce);
                assert_eq!(f0, g0, "fused52 len={len} reduce={reduce}");
                assert_eq!(f1, g1, "fused52 len={len} reduce={reduce}");
                assert_eq!(f2, g2, "fused52 len={len} reduce={reduce}");
                assert_eq!(f3, g3, "fused52 len={len} reduce={reduce}");
            }
        }
    }

    /// The dispatch rule as a table: at 31/36/49/50/59/60-bit primes,
    /// every op routes exactly where the static rule says, computed
    /// from the feature probes and `ifma_modulus_ok` alone, and asking
    /// again gives the same answer.
    #[test]
    fn ew_backend_follows_static_rule() {
        // (prime bits, inside the IFMA window)
        let table = [
            (31u32, true),
            (36, true),
            (49, true),
            (50, true),
            (59, false),
            (60, false),
        ];
        for (bits, ifma_window) in table {
            let q = generate_ntt_prime(64, bits).unwrap();
            assert_eq!(ifma_modulus_ok(q), ifma_window, "{bits}-bit q={q}");
            for op in EwOp::ALL {
                let want = match op {
                    EwOp::Add | EwOp::Sub | EwOp::Scale if avx2_available() => EwBackend::Avx2,
                    EwOp::Mul | EwOp::Mac if ifma_available() && ifma_window => EwBackend::Ifma,
                    _ => EwBackend::Portable,
                };
                for _ in 0..3 {
                    assert_eq!(ew_backend(op, q), want, "{} at {bits} bits", op.name());
                }
            }
        }
    }
}
