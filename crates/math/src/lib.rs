//! # ufc-math — arithmetic substrate for the UFC reproduction
//!
//! This crate implements, from scratch, every piece of finite-field and
//! polynomial-ring arithmetic that the FHE schemes accelerated by UFC
//! (MICRO 2024) are built on:
//!
//! * 64-bit modular arithmetic: plain, [Barrett][modops::Barrett]
//!   and [Shoup][modops::ShoupMul] reductions,
//! * NTT-friendly prime generation and primitive-root search
//!   ([`prime`]),
//! * the classical iterative number-theoretic transform with three
//!   kernel generations — the seed reference oracle, Shoup/Harvey
//!   radix-4 (cache-blocked on large rings), and an AVX-512 IFMA
//!   generation ([`simd`], 52-bit `vpmadd52` lanes for moduli below
//!   2⁵⁰, with a bit-identical portable mirror) — behind one
//!   modulus-width dispatch rule ([`ntt`],
//!   [`ntt::NttKernel::auto_for`]), and the
//!   **constant-geometry (Pease) NTT**
//!   that UFC's interconnect co-design is built around ([`cgntt`]),
//!   plus the double-precision FFT of the Strix baseline as the
//!   §VII-D accuracy model ([`fft`]),
//! * the flat limb-major RNS data plane with in-place kernels
//!   ([`plane`]), the one polynomial container of both schemes, and
//!   dependency-free limb parallelism ([`par`]),
//! * single-modulus polynomials `Z_q[X]/(X^N + 1)` ([`poly`]) for
//!   plaintexts and as the per-limb test oracle,
//! * residue number systems and fast base conversion (`BConv`)
//!   ([`rns`]),
//! * gadget / digit decomposition used by key-switching and RGSW
//!   external products ([`gadget`]),
//! * automorphism index maps, including the shuffle-free
//!   automorphism-via-NTT trick of the paper's §IV-C2 ([`automorph`]),
//! * secret / noise samplers ([`sample`]).
//!
//! Everything is pure, deterministic (given an RNG) and extensively
//! property-tested. `unsafe` is confined to exactly one module — the
//! AVX2 / AVX-512 IFMA intrinsics backends of [`simd`], gated behind
//! runtime feature detection — and every other module is compiled
//! with `deny(unsafe_code)`.
//!
//! ## Example
//!
//! ```
//! use ufc_math::{ntt::NttContext, poly::Poly};
//!
//! // A negacyclic ring Z_q[X]/(X^8 + 1) with an NTT-friendly prime.
//! let ctx = NttContext::new(8, ufc_math::prime::generate_ntt_prime(8, 40).unwrap());
//! let a = Poly::from_coeffs(vec![1, 2, 3, 4, 5, 6, 7, 8], ctx.modulus());
//! let b = Poly::from_coeffs(vec![8, 7, 6, 5, 4, 3, 2, 1], ctx.modulus());
//! let c = ctx.negacyclic_mul(&a, &b);
//! assert_eq!(c.coeffs().len(), 8);
//! ```

#![deny(unsafe_code)]

pub mod automorph;
pub mod cgntt;
pub mod fft;
pub mod gadget;
pub mod modops;
pub mod ntt;
pub mod par;
pub mod plane;
pub mod poly;
pub mod prime;
pub mod rns;
pub mod sample;
// The one sanctioned unsafe surface of the workspace: the AVX2
// intrinsics backend behind runtime feature detection. `cargo xtask
// lint` enforces that no other file carries `unsafe`.
#[allow(unsafe_code)]
pub mod simd;

pub use modops::{inv_mod, mul_mod, pow_mod};
pub use ntt::{NttContext, NttKernel};
pub use plane::RnsPlane;
pub use poly::Poly;
pub use rns::RnsBasis;
